package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"mobilenet/internal/core"
	"mobilenet/internal/grid"
	"mobilenet/internal/prof"
	"mobilenet/internal/scenario"
	"mobilenet/internal/store"
	"mobilenet/internal/telemetry"
)

// perLayer is every per-layer metric a traced run reports, with its unit,
// grouped by the workload that measures it. A traced run of another
// workload reports the metric as 0 and says so in a note: that workload
// never enters the layer. BENCHMARK.json's per_layer list mirrors this
// table; the package test holds the two together.
var perLayer = []struct{ name, unit, workload string }{
	// Step phases from the prof.StepProfile passed through core.Config,
	// per step, plus spans the benchmark wraps around Step and
	// NewBroadcast.
	{"agent.move_ms", "ms", "kernel_large"},
	{"visibility.index_ms", "ms", "kernel_large"},
	{"visibility.label_ms", "ms", "kernel_large"},
	{"core.spread_ms", "ms", "kernel_large"},
	{"obs.observe_ms", "ms", "kernel_large"},
	{"core.step_ms", "ms", "kernel_large"},
	{"core.unattributed_ms", "ms", "kernel_large"},
	{"core.setup_ms", "ms", "kernel_large"},

	// Job stages and engine phases from /metrics, differenced over the
	// traced window; direct calls into scenario, core and store on the
	// workload's own specs and payloads.
	{"simserve.admission_ms", "ms", "service"},
	{"simserve.queue_wait_ms", "ms", "service"},
	{"simserve.execute_ms", "ms", "service"},
	{"simserve.assemble_ms", "ms", "service"},
	{"simserve.cache_write_ms", "ms", "service"},
	{"simserve.move_ms", "ms", "service"},
	{"simserve.index_ms", "ms", "service"},
	{"simserve.label_ms", "ms", "service"},
	{"simserve.spread_ms", "ms", "service"},
	{"simserve.observe_ms", "ms", "service"},
	{"http.client_mean_ms", "ms", "service"},
	{"http.residual_ms", "ms", "service"},
	{"http.polls_per_op", "count", "service"},
	{"scenario.run_rep_ms", "ms", "service"},
	{"scenario.run_rep_profiled_ms", "ms", "service"},
	{"scenario.profile_tax_frac", "ratio", "service"},
	{"core.setup_frac", "ratio", "service"},
	{"scenario.hash_us", "us", "service"},
	{"simserve.lru_hit_frac", "ratio", "service"},
	{"store.hit_frac", "ratio", "service"},
	{"store.get_us", "us", "service"},
	{"store.put_ms", "ms", "service"},
	{"store.open_ms", "ms", "service"},
	{"store.dropped_writes", "count", "service"},
	{"store.corrupt", "count", "service"},

	// The coordinator→worker hop, from the coordinator's and workers'
	// /metrics plus a span around cluster.Client.RunPoint.
	{"sweep.expand_ms", "ms", "sweep_fleet"},
	{"cluster.dispatch_ms", "ms", "sweep_fleet"},
	{"cluster.worker_execute_ms", "ms", "sweep_fleet"},
	{"cluster.hop_ms", "ms", "sweep_fleet"},
	{"cluster.run_point_ms", "ms", "sweep_fleet"},
	{"cluster.round_trips_per_point", "count", "sweep_fleet"},
	{"cluster.rerouted", "count", "sweep_fleet"},
	{"cluster.worker_skew", "ratio", "sweep_fleet"},

	// Every workload: the traced run's cost against an untraced window
	// of the same run.
	{"prof.overhead_frac", "ratio", "all"},
}

// maxSpans bounds the spans a traced run records around its ops, so its
// trace stays loadable.
const maxSpans = 8192

// writeTrace exports the traced run's spans as Chrome trace JSON next to
// the build, after checking it parses as one.
func writeTrace(opt *options, rep *report, tr *prof.Trace) error {
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	spans, err := prof.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(tracePath(opt), buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	rep.note("trace: %d spans written to %s", spans, tracePath(opt))
	return nil
}

// scrape is one read of a server's /metrics: histogram series (keyed as
// exposed, e.g. `mobiserved_stage_seconds{stage="execute"}`) and every
// other sample by the same key.
type scrape struct {
	hists   map[string]telemetry.ScrapedHistogram
	samples map[string]float64
}

func scrapeMetrics(hc *http.Client, base string) (scrape, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return scrape{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return scrape{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return scrape{}, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	s := scrape{hists: telemetry.ParseHistograms(string(body)), samples: make(map[string]float64)}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			s.samples[line[:i]] = v
		}
	}
	return s, nil
}

// delta is what a server recorded between two scrapes.
type delta struct{ before, after scrape }

// hist returns the window's observation count and summed seconds for one
// histogram series; a series absent before the window started at zero.
func (d delta) hist(key string) (count uint64, sum float64) {
	a, ok := d.after.hists[key]
	if !ok {
		return 0, 0
	}
	b := d.before.hists[key]
	return a.Count() - b.Count(), a.Sum - b.Sum
}

// meanMS is a histogram's mean observation over the window, in ms.
func (d delta) meanMS(key string) (float64, int) {
	n, sum := d.hist(key)
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n) * 1000, int(n)
}

func (d delta) counter(key string) float64 { return d.after.samples[key] - d.before.samples[key] }

func stageKey(stage string) string {
	return `mobiserved_stage_seconds{stage="` + stage + `"}`
}

func phaseKey(phase string) string {
	return `mobiserved_engine_phase_seconds{engine="broadcast",phase="` + phase + `"}`
}

func routeKey(route string) string {
	return `mobiserved_http_request_seconds{route="` + route + `"}`
}

// serviceLayers derives the service group's per-layer metrics from the
// server's /metrics over the traced window and the window's own ops.
func serviceLayers(rep *report, d delta, w *window, polls float64) {
	ops := float64(len(w.ops))
	var perOp float64
	for _, stage := range []string{"admission", "queue_wait", "execute", "assemble", "cache_write"} {
		v, n := d.meanMS(stageKey(stage))
		rep.set("simserve."+stage+"_ms", "ms", n, v)
		_, sum := d.hist(stageKey(stage))
		perOp += sum * 1000 / ops
	}
	for _, phase := range prof.PhaseNames() {
		v, n := d.meanMS(phaseKey(phase))
		rep.set("simserve."+phase+"_ms", "ms", n, v)
	}
	// The residual closes over ops, not stage observations: on
	// service_repeat most ops execute nothing, so the stages' time is
	// spread over every op the client timed.
	client := w.okMeanMS()
	rep.set("http.client_mean_ms", "ms", len(w.ops), client)
	rep.set("http.residual_ms", "ms", len(w.ops), client-perOp)
	rep.note("http.residual_ms = http.client_mean_ms %.4g - job stage time per op %.4g (residual %.1f%% of its base)",
		client, perOp, 100*(client-perOp)/client)
	rep.set("http.polls_per_op", "count", len(w.ops), polls/ops)

	hits, misses := d.counter("mobiserved_cache_hits_total"), d.counter("mobiserved_cache_misses_total")
	diskHits, diskMisses := d.counter("mobiserved_store_hits_total"), d.counter("mobiserved_store_misses_total")
	rep.set("simserve.lru_hit_frac", "ratio", int(hits+misses), ratio(math.Max(hits-diskHits, 0), hits+misses))
	rep.set("store.hit_frac", "ratio", int(diskHits+diskMisses), ratio(diskHits, diskHits+diskMisses))
	rep.set("store.dropped_writes", "count", 1, d.counter("mobiserved_store_dropped_writes_total"))
	rep.set("store.corrupt", "count", 1, d.counter("mobiserved_store_corrupt_total"))
	rep.note("simserve.lru_hit_frac = (cache hits %g - store hits %g) / submissions %g; store.hit_frac = store hits / store probes %g",
		hits, diskHits, hits+misses, diskHits+diskMisses)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// probeLayers times direct calls into scenario, core and store on the
// workload's own specs and their payloads, outside the timed window.
// Each call is a span on the probe lane; there are a few hundred at most,
// so they are recorded even when the client lanes filled their budget.
func probeLayers(opt *options, rep *report, tr *prof.Trace, specs [][]byte) error {
	const lane = 100
	tr.NameThread(lane, "direct calls")
	span := func(name string, f func() error) (float64, error) {
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		tr.Add(name, "probe", lane, t0, d, nil)
		return ms(d), err
	}
	runner, ok := scenario.Lookup(scenario.EngineBroadcast)
	if !ok {
		return fmt.Errorf("no broadcast runner")
	}
	var hashUS, plain, profiled, setup []float64
	payloads := make(map[string][]byte, len(specs))
	for _, raw := range specs {
		s, err := scenario.Parse(raw)
		if err != nil {
			return err
		}
		var c scenario.Spec
		var hash string
		d, err := span("Canonical+HashCanonical", func() error {
			var err error
			if c, err = s.Canonical(); err == nil {
				hash, err = scenario.HashCanonical(c)
			}
			return err
		})
		if err != nil {
			return err
		}
		hashUS = append(hashUS, d*1000)
		seed := scenario.RepSeed(c.Seed, 0)
		for _, on := range []bool{false, true} {
			c.Profile = on
			d, err := span(fmt.Sprintf("RunRep profile=%v", on), func() error {
				_, err := runner.RunRep(context.Background(), c, seed)
				return err
			})
			if err != nil {
				return err
			}
			if on {
				profiled = append(profiled, d)
			} else {
				plain = append(plain, d)
			}
		}
		g, err := grid.FromNodes(c.Nodes)
		if err != nil {
			return err
		}
		d, err = span("NewBroadcast", func() error {
			_, err := core.NewBroadcast(core.Config{
				Grid: g, K: c.Agents, Radius: c.Radius, Seed: seed, Source: c.Source,
				MaxSteps: c.MaxSteps, RecordCurve: c.HasMetric(scenario.MetricCurve),
			})
			return err
		})
		if err != nil {
			return err
		}
		setup = append(setup, d)
		if payloads[hash], err = scenarioRef(raw); err != nil {
			return err
		}
	}
	n := len(specs)
	runRep, runRepProf := median(plain), median(profiled)
	rep.set("scenario.hash_us", "us", n, median(hashUS))
	rep.set("scenario.run_rep_ms", "ms", n, runRep)
	rep.set("scenario.run_rep_profiled_ms", "ms", n, runRepProf)
	rep.set("scenario.profile_tax_frac", "ratio", n, runRepProf/runRep-1)
	rep.set("core.setup_frac", "ratio", n, median(setup)/runRep)
	rep.note("scenario.profile_tax_frac = run_rep_profiled_ms %.4g / run_rep_ms %.4g - 1; core.setup_frac = NewBroadcast %.4g ms / run_rep_ms",
		runRepProf, runRep, median(setup))

	dir := filepath.Join(opt.scratch, "probe-store")
	st, err := store.Open(dir, storeCap)
	if err != nil {
		return err
	}
	var puts, opens, gets []float64
	for hash, p := range payloads {
		d, err := span("store.Put", func() error { return st.Put(hash, p) })
		if err != nil {
			return err
		}
		puts = append(puts, d)
	}
	for i := 0; i < setupReps; i++ {
		d, err := span("store.Open", func() error {
			var err error
			st, err = store.Open(dir, storeCap)
			return err
		})
		if err != nil {
			return err
		}
		opens = append(opens, d)
	}
	for hash, p := range payloads {
		var got []byte
		d, _ := span("store.Get", func() error {
			got, _ = st.Get(hash)
			return nil
		})
		if err := check(opt, got, p); err != nil {
			return fmt.Errorf("store probe: %w", err)
		}
		gets = append(gets, d*1000)
	}
	rep.set("store.put_ms", "ms", len(puts), median(puts))
	rep.set("store.open_ms", "ms", len(opens), median(opens))
	rep.set("store.get_us", "us", len(gets), median(gets))
	return nil
}
