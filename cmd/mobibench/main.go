// Command mobibench is a closed-loop load generator for the simulation
// service: -c clients drive a real mobiserved (in-process by default, or
// the daemon at -addr) for -d per workload, each submitting, waiting for
// the result and submitting again. It prints client-side latency
// quantiles and saturation throughput per workload and exits non-zero on
// any client-visible error. It is the service's smoke, fault-injection
// and fleet driver; performance is measured with perfbench
// (bash perfbench/run.sh --workload … --trace 1).
//
// Workloads, run as separate phases:
//
//	cold    unique-seed broadcast scenarios (every request simulates)
//	cached  one fixed scenario resubmitted (answered from the result cache)
//	sweep   two-point sweeps with unique base seeds, polled via /v1/sweeps
//	series  NDJSON series fetches of a pre-warmed observed scenario
//	chaos   opt-in: cold-style runs retried with capped exponential
//	        backoff + jitter, against a daemon started with -chaos
//	fleet   opt-in: unique-seed sweeps against a coordinator; boots a
//	        two-worker in-process fleet unless -addr names one
//
// Each scenario request is one blocking POST /v1/run?wait= through
// cluster.Client, the coordinator's own worker client. -trace-out writes
// one span per request (capped per phase) as validated Chrome trace-event
// JSON, loadable in Perfetto (ui.perfetto.dev).
//
// Usage:
//
//	go run ./cmd/mobibench -c 8 -d 3s -addr localhost:8080 -workloads cold,cached
//	go run ./cmd/mobibench -smoke -trace-out bench-trace.json   # CI load smoke
//	go run ./cmd/mobibench -smoke -addr localhost:8080 -workloads chaos
//	go run ./cmd/mobibench -smoke -workloads fleet
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mobilenet/internal/cluster"
	"mobilenet/internal/obs"
	"mobilenet/internal/prof"
	"mobilenet/internal/scenario"
	"mobilenet/internal/simserve"
	"mobilenet/internal/sweep"
	"mobilenet/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mobibench:", err)
		os.Exit(1)
	}
}

// benchConfig is the parsed flag set.
type benchConfig struct {
	addr                string // host:port or base URL of a running mobiserved; "" = in-process
	conc, nodes, agents int
	duration            time.Duration
	workloads           []string
	traceOut            string
}

// knownWorkloads in report order. chaos (which needs a fault-injecting
// daemon) and fleet (which boots its own sharded backend) are opt-in.
var knownWorkloads = []string{"cold", "cached", "sweep", "series", "chaos", "fleet"}

// defaultWorkloads are the phases a plain run benches.
var defaultWorkloads = []string{"cold", "cached", "sweep", "series"}

func run(args []string, out io.Writer) error {
	var cfg benchConfig
	fs := flag.NewFlagSet("mobibench", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", "", "host:port or base URL of a running mobiserved (default: start one in-process)")
	fs.IntVar(&cfg.conc, "c", 8, "concurrent closed-loop clients per workload")
	fs.DurationVar(&cfg.duration, "d", 3*time.Second, "measured duration per workload phase")
	workloads := fs.String("workloads", strings.Join(defaultWorkloads, ","), "comma-separated workload phases to run (chaos and fleet are opt-in)")
	fs.IntVar(&cfg.nodes, "nodes", 256, "grid nodes of the probe scenario")
	fs.IntVar(&cfg.agents, "agents", 8, "agents of the probe scenario")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "export a client-side bench trace (Chrome trace-event JSON, validated before writing) to this file")
	smoke := fs.Bool("smoke", false, "CI smoke mode: 4 clients for 250ms per workload (honours -addr)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *smoke {
		// Just long enough for every path to produce non-degenerate quantiles.
		cfg.conc, cfg.duration = 4, 250*time.Millisecond
	}
	if cfg.conc < 1 || cfg.duration <= 0 || cfg.nodes < 4 || cfg.agents < 1 {
		return fmt.Errorf("c, d, nodes and agents must be positive (and nodes at least 4)")
	}
	for _, w := range strings.Split(*workloads, ",") {
		if w = strings.TrimSpace(w); w == "" {
			continue
		}
		if !slices.Contains(knownWorkloads, w) {
			return fmt.Errorf("unknown workload %q (want a subset of %s)", w, strings.Join(knownWorkloads, ","))
		}
		cfg.workloads = append(cfg.workloads, w)
	}
	if len(cfg.workloads) == 0 {
		return fmt.Errorf("no workloads selected")
	}

	results, err := runBench(cfg, out)
	if err != nil {
		return err
	}
	if err := validateReport(results, cfg.workloads); err != nil {
		return fmt.Errorf("report failed validation: %w", err)
	}
	fmt.Fprintf(out, "mobibench: schema ok, %d workloads validated\n", len(results))
	return nil
}

// WorkloadResult is one workload phase's outcome: client-side end-to-end
// latency quantiles in ms and throughput at the offered concurrency.
type WorkloadResult struct {
	Requests, Errors    uint64
	ThroughputRPS       float64
	P50, P90, P99, Mean float64
}

// runBench stands up (or connects to) the service, runs and prints every
// selected workload phase, and returns the results by workload name.
func runBench(cfg benchConfig, progress io.Writer) (map[string]WorkloadResult, error) {
	var shutdown func()
	base := cfg.addr
	if base == "" {
		// The deadline machinery is always armed, at the client's own
		// request budget — hardening on, at a level the bench never trips.
		var err error
		if base, shutdown, err = serveOne(simserve.New(simserve.Config{DefaultDeadline: requestBudget})); err != nil {
			return nil, err
		}
	}
	cl, stop, err := connect(base, cfg.conc, shutdown)
	if err != nil {
		return nil, err
	}
	defer stop()

	results := make(map[string]WorkloadResult, len(cfg.workloads))
	var tr *prof.Trace
	if cfg.traceOut != "" {
		tr = prof.NewTrace()
	}
	for i, name := range cfg.workloads {
		fmt.Fprintf(progress, "mobibench: workload %s (c=%d, %s)\n", name, cfg.conc, cfg.duration)
		res, err := runPhase(cl, name, cfg, tr, i)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", name, err)
		}
		fmt.Fprintf(progress, "mobibench: %s: %d requests, %d errors, %.1f req/s, latency ms p50 %.3f p90 %.3f p99 %.3f mean %.3f\n",
			name, res.Requests, res.Errors, res.ThroughputRPS, res.P50, res.P90, res.P99, res.Mean)
		results[name] = res
	}
	if tr == nil {
		return results, nil
	}
	// Validate the trace (the validator CI's tracecheck uses) before writing.
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		return nil, err
	}
	spans, err := prof.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("bench trace failed validation: %w", err)
	}
	if err := os.WriteFile(cfg.traceOut, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(progress, "mobibench: trace %s (%d spans, validated)\n", cfg.traceOut, spans)
	return results, nil
}

// traceSampleCap bounds the recorded request spans per workload phase, so
// a long run exports a trace a viewer can still load.
const traceSampleCap = 2048

// runPhase prepares one workload and runs its closed loop for the
// configured duration.
func runPhase(cl *client, name string, cfg benchConfig, tr *prof.Trace, phase int) (WorkloadResult, error) {
	request, cleanup, err := makeWorkload(cl, name, cfg)
	if err != nil {
		return WorkloadResult{}, err
	}
	if cleanup != nil {
		defer cleanup()
	}

	var (
		hist                        telemetry.Histogram
		requests, errCount, sampled atomic.Uint64
		firstErr                    error
		firstOnce                   sync.Once
	)
	deadline := time.Now().Add(cfg.duration)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.conc; w++ {
		// One trace lane per (workload, client): a closed loop's spans
		// never overlap within a lane, which keeps the timeline readable.
		tid := int64(phase*cfg.conc+w) + 1
		tr.NameThread(tid, fmt.Sprintf("%s client %d", name, w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				if err := request(); err != nil {
					errCount.Add(1)
					firstOnce.Do(func() { firstErr = err })
					continue
				}
				d := time.Since(t0)
				hist.Record(d)
				if tr != nil && sampled.Add(1) <= traceSampleCap {
					tr.Add("request", name, tid, t0, d, nil)
				}
				requests.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	n := requests.Load()
	if n == 0 {
		return WorkloadResult{}, fmt.Errorf("no request succeeded within %s (first error: %v)", cfg.duration, firstErr)
	}
	return WorkloadResult{
		Requests:      n,
		Errors:        errCount.Load(),
		ThroughputRPS: float64(n) / elapsed.Seconds(),
		P50:           ms(hist.Quantile(0.50)),
		P90:           ms(hist.Quantile(0.90)),
		P99:           ms(hist.Quantile(0.99)),
		Mean:          ms(hist.Sum()) / float64(n),
	}, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// makeWorkload returns the request function one closed-loop client calls
// repeatedly, after any pre-warm, plus an optional cleanup for a backend
// the workload boots (fleet). Seeds are unique across the whole run.
func makeWorkload(cl *client, name string, cfg benchConfig) (func() error, func(), error) {
	spec := func(seed uint64) scenario.Spec {
		return scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: cfg.nodes, Agents: cfg.agents, Reps: 1, Seed: seed}
	}
	sweepSpec := func(seed uint64) sweep.Spec {
		return sweep.Spec{Base: spec(seed), Axes: []sweep.Axis{{Field: "agents", Values: []any{cfg.agents, cfg.agents * 2}}}}
	}
	switch name {
	case "cold":
		return func() error { return cl.run(spec(nextSeed())) }, nil, nil
	case "cached":
		warm := spec(1)
		if err := cl.run(warm); err != nil {
			return nil, nil, fmt.Errorf("pre-warm: %w", err)
		}
		return func() error { return cl.run(warm) }, nil, nil
	case "series":
		observed := spec(2)
		observed.Observe = &obs.Spec{Observables: []string{obs.Informed}, Every: 4}
		hash, err := observed.Hash()
		if err != nil {
			return nil, nil, err
		}
		if err := cl.run(observed); err != nil {
			return nil, nil, fmt.Errorf("pre-warm: %w", err)
		}
		return func() error { return cl.getSeries(hash) }, nil, nil
	case "sweep", "fleet":
		// fleet sends the sweeps to a coordinator, which dispatches each
		// point to its rendezvous home over real HTTP. With -addr the
		// external daemon is assumed to run -coordinator.
		target, cleanup := cl, func() {}
		if name == "fleet" && cfg.addr == "" {
			base, shutdown, err := startFleet(2)
			if err != nil {
				return nil, nil, err
			}
			if target, cleanup, err = connect(base, cfg.conc, shutdown); err != nil {
				return nil, nil, err
			}
		}
		return func() error { return target.sweepAndWait(sweepSpec(nextSeed())) }, cleanup, nil
	case "chaos":
		// Cold-style runs against a fault-injecting server, retried the way
		// a well-behaved client should: one spec across all attempts, and an
		// error only when every attempt fails.
		return func() (err error) {
			s := spec(nextSeed())
			for attempt, backoff := 0, chaosRetryBase; attempt < chaosRetryAttempts; attempt++ {
				if attempt > 0 {
					// Jitter over [b/2, 3b/2), so retrying clients do not
					// resubmit in lockstep.
					time.Sleep(backoff/2 + time.Duration(rand.Int64N(int64(backoff))))
					backoff = min(2*backoff, chaosRetryCap)
				}
				if err = cl.run(s); err == nil {
					return nil
				}
			}
			return fmt.Errorf("%d attempts exhausted: %w", chaosRetryAttempts, err)
		}, nil, nil
	}
	return nil, nil, fmt.Errorf("unknown workload %q", name)
}

// Chaos-workload retry policy: a handful of attempts, exponential backoff
// from a few milliseconds, capped well under the request budget.
const (
	chaosRetryAttempts = 4
	chaosRetryBase     = 5 * time.Millisecond
	chaosRetryCap      = 200 * time.Millisecond
)

var seedCounter atomic.Uint64

// nextSeed returns a seed no other request of this run has used, clear of
// the small seeds the warm workloads pin.
func nextSeed() uint64 { return 1_000_000 + seedCounter.Add(1) }

// serveOne puts a service behind a loopback HTTP listener — the
// in-process mobiserved equivalent — and returns the base URL plus a
// shutdown that drains both layers.
func serveOne(svc *simserve.Server) (string, func(), error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: svc}
	go hs.Serve(l)
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		svc.Shutdown(ctx)
	}
	return "http://" + l.Addr().String(), shutdown, nil
}

// startFleet boots n in-process workers plus a coordinator sharding sweep
// points across them — the same wiring cmd/mobiserved -coordinator uses —
// and returns the coordinator's base URL and a fleet-wide shutdown.
func startFleet(n int) (string, func(), error) {
	// The coordinator's worker connections are closed after each shutdown:
	// one its transport dialled but never used would otherwise hold a
	// worker's http.Server.Shutdown for 5 s.
	hc := &http.Client{Timeout: 10 * time.Second}
	var shutdowns []func()
	shutdownAll := func() {
		// Coordinator first: it stops dispatching before its workers go away.
		for i := len(shutdowns) - 1; i >= 0; i-- {
			shutdowns[i]()
			hc.CloseIdleConnections()
		}
	}
	fail := func(err error) (string, func(), error) {
		shutdownAll()
		return "", nil, err
	}
	addrs := make([]string, n)
	for i := range addrs {
		base, shutdown, err := serveOne(simserve.New(simserve.Config{DefaultDeadline: requestBudget}))
		if err != nil {
			return fail(err)
		}
		shutdowns = append(shutdowns, shutdown)
		addrs[i] = strings.TrimPrefix(base, "http://")
	}
	var coord *simserve.Server
	exec, err := cluster.New(cluster.Config{
		Workers:    addrs,
		HTTPClient: hc,
		Lookup:     func(hash string) ([]byte, bool) { return coord.Result(hash) },
		Persist:    func(hash string, payload []byte) { coord.PutResult(hash, payload) },
	})
	if err != nil {
		return fail(err)
	}
	coord = simserve.New(simserve.Config{Executor: exec, DefaultDeadline: requestBudget})
	base, shutdown, err := serveOne(coord)
	if err != nil {
		return fail(err)
	}
	shutdowns = append(shutdowns, shutdown)
	return base, shutdownAll, nil
}

// requestBudget caps one closed-loop request end to end, so a wedged
// server fails the bench instead of hanging it.
const requestBudget = 30 * time.Second

// client drives the service API: scenario runs through cluster.Client,
// plus the sweep and series routes it does not cover.
type client struct {
	*cluster.Client
	hc *http.Client
}

func newClient(addr string, conc int) *client {
	hc := &http.Client{
		Transport: &http.Transport{MaxIdleConns: conc * 2, MaxIdleConnsPerHost: conc * 2},
		Timeout:   60 * time.Second,
	}
	return &client{Client: cluster.NewClient(strings.TrimRight(addr, "/"), hc), hc: hc}
}

// connect returns a client for base once it answers /healthz, and a stop
// that closes the client's idle connections (see startFleet) and then
// runs shutdown (nil for an external daemon).
func connect(base string, conc int, shutdown func()) (*client, func(), error) {
	cl := newClient(base, conc)
	stop := func() {
		cl.hc.CloseIdleConnections()
		if shutdown != nil {
			shutdown()
		}
	}
	for deadline := time.Now().Add(10 * time.Second); cl.Healthy() != nil; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			stop()
			return nil, nil, fmt.Errorf("server at %s never became healthy", cl.Addr())
		}
	}
	return cl, stop, nil
}

// run executes one scenario in one blocking round trip (re-POSTed while the
// job outlives the wait bound); a failed job (422) is an error.
func (c *client) run(spec scenario.Spec) error {
	ctx, cancel := context.WithTimeout(context.Background(), requestBudget)
	defer cancel()
	_, _, err := c.RunPoint(spec, ctx)
	return err
}

// pollInterval paces sweep polling, well under a sweep's execution time
// so polling quantisation stays small against the measured latency.
const pollInterval = 300 * time.Microsecond

// sweepAndWait POSTs a sweep spec and polls /v1/sweeps/{id} to completion
// (the sweep route has no blocking form).
func (c *client) sweepAndWait(spec sweep.Spec) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	var ticket struct {
		SweepID string `json:"sweep_id"`
	}
	if err := c.call(http.MethodPost, "/v1/sweeps", body, http.StatusAccepted, &ticket); err != nil {
		return err
	}
	for deadline := time.Now().Add(requestBudget); time.Now().Before(deadline); time.Sleep(pollInterval) {
		var view struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := c.call(http.MethodGet, "/v1/sweeps/"+ticket.SweepID, nil, http.StatusOK, &view); err != nil {
			return err
		}
		switch view.Status {
		case "done":
			return nil
		case "failed":
			return fmt.Errorf("sweep failed: %s", view.Error)
		}
	}
	return fmt.Errorf("sweep %s did not finish within %s", ticket.SweepID, requestBudget)
}

// getSeries fetches a cached result's NDJSON series.
func (c *client) getSeries(hash string) error {
	return c.call(http.MethodGet, "/v1/results/"+hash+"/series", nil, http.StatusOK, nil)
}

// call sends one request and decodes the JSON answer into v (nil discards
// it); any status but want is an error.
func (c *client) call(method, path string, body []byte, want int, v any) error {
	req, err := http.NewRequest(method, c.Addr()+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		return err
	case resp.StatusCode != want:
		return fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, data)
	case v == nil:
		return nil
	}
	return json.Unmarshal(data, v)
}

// chaosErrorBudget is the error fraction the chaos workload tolerates: a
// server injecting panics at a high rate can legitimately exhaust a few
// retry chains. Every other workload requires zero errors.
const chaosErrorBudget = 0.2

// validateReport checks what every CI smoke job relies on: per requested
// workload a non-degenerate result with ordered quantiles and no errors
// (chaos alone gets chaosErrorBudget).
func validateReport(results map[string]WorkloadResult, workloads []string) error {
	for _, name := range workloads {
		res, ok := results[name]
		if !ok {
			return fmt.Errorf("workload %s missing from results", name)
		}
		total := res.Requests + res.Errors
		switch {
		case res.Requests == 0:
			return fmt.Errorf("workload %s completed zero requests", name)
		case name == "chaos" && float64(res.Errors) > chaosErrorBudget*float64(total):
			return fmt.Errorf("workload chaos exhausted retries on %d of %d requests (budget %g%%)", res.Errors, total, chaosErrorBudget*100)
		case name != "chaos" && res.Errors != 0:
			return fmt.Errorf("workload %s had %d errors", name, res.Errors)
		case res.ThroughputRPS <= 0:
			return fmt.Errorf("workload %s throughput %g", name, res.ThroughputRPS)
		case res.P50 <= 0 || res.P99 < res.P50:
			return fmt.Errorf("workload %s quantiles out of order: p50 %g p99 %g", name, res.P50, res.P99)
		}
	}
	return nil
}
