package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"

	"mobilenet/internal/cluster"
	"mobilenet/internal/prof"
	"mobilenet/internal/scenario"
	"mobilenet/internal/simserve"
	"mobilenet/internal/sweep"
	"mobilenet/internal/telemetry"
)

// fleetWorkers is the sweep_fleet worker count.
const fleetWorkers = 2

// sweepSpec is an E3-shaped radius sweep below r_c = √(n/k) = 8.
func sweepSpec(seed uint64) []byte {
	return []byte(fmt.Sprintf(`{"base":{"engine":"broadcast","nodes":%d,"agents":%d,"reps":1,"seed":%d},"axes":[{"field":"radius","from":1,"to":7,"step":1}]}`,
		serviceNodes, serviceAgents, seed))
}

// fleet is a coordinator and its workers, all in process.
type fleet struct {
	workers   []*service
	coord     *service
	probeStop chan struct{}
	probeDone chan struct{}
}

// startFleet starts the workers, then a coordinator sharding sweep points
// across them, wired as cmd/mobiserved -coordinator wires it: dispatch
// histograms per worker, a reroute counter, and the health probe loop.
// It returns once every server answers /healthz.
func startFleet() (*fleet, error) {
	f := &fleet{}
	addrs := make([]string, 0, fleetWorkers)
	for i := 0; i < fleetWorkers; i++ {
		w, err := startService(simserve.Config{DefaultDeadline: requestBudget}, nil)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, w)
		addrs = append(addrs, strings.TrimPrefix(w.cl.base, "http://"))
	}
	var (
		coord    *simserve.Server
		rerouted *telemetry.Counter
		dispatch = make(map[string]*telemetry.Histogram, fleetWorkers)
	)
	exec, err := cluster.New(cluster.Config{
		Workers:    addrs,
		Lookup:     func(hash string) ([]byte, bool) { return coord.Result(hash) },
		Persist:    func(hash string, payload []byte) { coord.PutResult(hash, payload) },
		OnReroute:  func(string) { rerouted.Inc() },
		OnDispatch: func(worker string, d time.Duration) { dispatch[worker].Record(d) },
	})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.coord, err = startService(simserve.Config{Executor: exec, DefaultDeadline: requestBudget}, func(s *simserve.Server) {
		coord = s
		m := s.Metrics()
		rerouted = m.Counter("mobiserved_points_rerouted_total",
			"Sweep-point failovers: a worker exhausted its retry budget and its points moved to the next worker in their rendezvous order.")
		for _, w := range addrs {
			dispatch[w] = m.Histogram("mobiserved_worker_dispatch_seconds",
				"End-to-end remote point dispatch latency (submit, poll, fetch) per worker.",
				telemetry.Label{Name: "worker", Value: w})
		}
	})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.probeStop, f.probeDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(f.probeDone)
		exec.ProbeLoop(f.probeStop, 0)
	}()
	return f, nil
}

// stop shuts the coordinator down before its workers, so nothing is
// dispatched to a worker that is gone.
func (f *fleet) stop() {
	if f.probeStop != nil {
		close(f.probeStop)
		<-f.probeDone
	}
	if f.coord != nil {
		f.coord.stop()
	}
	for _, w := range f.workers {
		w.stop()
	}
}

// runSweep is one sweep_fleet op: POST /v1/sweeps, then poll the sweep
// until it is done. It returns the sweep result.
func (c *client) runSweep(tid int64, spec []byte) ([]byte, error) {
	t0 := time.Now()
	status, body, err := c.call(tid, http.MethodPost, "/v1/sweeps", "POST /v1/sweeps", spec)
	if err != nil {
		return nil, err
	}
	if status != http.StatusAccepted {
		return nil, fmt.Errorf("POST /v1/sweeps: status %d: %.200s", status, body)
	}
	var t simserve.SweepTicket
	if err := json.Unmarshal(body, &t); err != nil {
		return nil, err
	}
	var result []byte
	_, _, err = c.poll(tid, "/v1/sweeps/"+t.SweepID, "GET /v1/sweeps/{id}", func(b []byte) (bool, error) {
		var v simserve.SweepView
		if err := json.Unmarshal(b, &v); err != nil {
			return false, err
		}
		switch v.Status {
		case simserve.StatusDone:
			result = v.Result
			return true, nil
		case simserve.StatusFailed, simserve.StatusCancelled:
			return false, fmt.Errorf("sweep %s %s: %s", v.SweepID, v.Status, v.Error)
		}
		return false, nil
	})
	if c.tr != nil && c.tr.Len() < maxSpans {
		c.tr.Add("op", "op", tid, t0, time.Since(t0), map[string]string{"sweep": t.Hash})
	}
	return result, err
}

// sweepRef is the reference payload of a sweep spec: the library sweep,
// encoded the way the service encodes sweep results.
func sweepRef(spec []byte) ([]byte, error) {
	sp, err := sweep.Parse(spec)
	if err != nil {
		return nil, err
	}
	res, err := sweep.Run(sp, sweep.Options{})
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

func runSweepFleet(opt *options, rep *report) error {
	setup, f, err := medianSetup(setupReps, startFleet, (*fleet).stop)
	if err != nil {
		return err
	}
	defer f.stop()
	rep.set("setup_s", "s", setupReps, setup)

	var (
		pending pendingChecks
		cl      = f.coord.cl
		servers = append([]*service{f.coord}, f.workers...)
		before  = make([]scrape, len(servers))
		deltas  = make([]delta, len(servers))
	)
	spec := func(i uint64) []byte { return sweepSpec(derive(opt.seed, streamUnique, i)) }
	op := func(c int, i uint64) error {
		payload, err := cl.runSweep(int64(c), spec(i))
		if err != nil {
			return err
		}
		pending.add(opt, i, payload)
		return nil
	}
	tr := newClientTrace()
	run, err := runLoad(opt, op, func(on bool) error {
		if on {
			cl.tr = tr
		} else {
			cl.tr = nil
		}
		for i, s := range servers {
			sc, err := scrapeMetrics(s.cl.hc, s.cl.base)
			if err != nil {
				return err
			}
			if on {
				before[i] = sc
			} else {
				deltas[i] = delta{before[i], sc}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.setPeakRSS()
	if err := pending.verify(opt, spec, sweepRef, run.all...); err != nil {
		return err
	}
	if !run.finish(rep) {
		return nil
	}
	fleetLayers(rep, deltas[0], deltas[1:], f)
	if err := probeRunPoint(opt, rep, tr, f.workers[0]); err != nil {
		return err
	}
	return writeTrace(opt, rep, tr)
}

// fleetLayers derives the coordinator→worker hop's per-layer metrics from
// the coordinator's and the workers' /metrics over the traced window.
func fleetLayers(rep *report, coord delta, workers []delta, f *fleet) {
	v, n := coord.meanMS(stageKey("sweep_expand"))
	rep.set("sweep.expand_ms", "ms", n, v)

	var (
		points, dispatchSum, execN, execSum, trips float64
		most                                       float64
	)
	for i, w := range workers {
		addr := strings.TrimPrefix(f.workers[i].cl.base, "http://")
		cnt, sum := coord.hist(`mobiserved_worker_dispatch_seconds{worker="` + addr + `"}`)
		points += float64(cnt)
		dispatchSum += sum
		most = math.Max(most, float64(cnt))
		cnt, sum = w.hist(stageKey("execute"))
		execN += float64(cnt)
		execSum += sum
		for _, route := range []string{"run", "jobs", "results"} {
			c, _ := w.hist(routeKey(route))
			trips += float64(c)
		}
	}
	dispatch := 1000 * ratio(dispatchSum, points)
	execute := 1000 * ratio(execSum, execN)
	rep.set("cluster.dispatch_ms", "ms", int(points), dispatch)
	rep.set("cluster.worker_execute_ms", "ms", int(execN), execute)
	rep.set("cluster.hop_ms", "ms", int(points), dispatch-execute)
	rep.note("cluster.hop_ms = cluster.dispatch_ms %.4g - cluster.worker_execute_ms %.4g (residual %.1f%% of its base)",
		dispatch, execute, 100*ratio(dispatch-execute, dispatch))
	rep.set("cluster.round_trips_per_point", "count", int(points), ratio(trips, points))
	rep.set("cluster.rerouted", "count", 1, coord.counter("mobiserved_points_rerouted_total"))
	rep.set("cluster.worker_skew", "ratio", len(workers), ratio(most, points/float64(len(workers))))
	rep.note("cluster.worker_skew = most points on one worker %g / mean %g over %d workers", most, points/float64(len(workers)), len(workers))
}

// probeRunPoint times cluster.Client.RunPoint against one worker on fresh
// point specs, and checks each payload against the library run.
func probeRunPoint(opt *options, rep *report, tr *prof.Trace, w *service) error {
	const lane = 100
	tr.NameThread(lane, "direct calls")
	cl := cluster.NewClient(strings.TrimPrefix(w.cl.base, "http://"), nil)
	var ds []float64
	for i := 0; i < probeSpecs; i++ {
		s, err := scenario.Spec{
			Engine: scenario.EngineBroadcast, Nodes: serviceNodes, Agents: serviceAgents,
			Radius: 1 + i%7, Seed: derive(opt.seed, streamProbe, uint64(i)), Reps: 1,
		}.Canonical()
		if err != nil {
			return err
		}
		t0 := time.Now()
		payload, _, err := cl.RunPoint(s, nil)
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("RunPoint: %w", err)
		}
		tr.Add("cluster.Client.RunPoint", "probe", lane, t0, d, nil)
		res, err := scenario.Run(s)
		if err != nil {
			return err
		}
		want, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if err := check(opt, payload, want); err != nil {
			return fmt.Errorf("RunPoint probe: %w", err)
		}
		ds = append(ds, ms(d))
	}
	rep.set("cluster.run_point_ms", "ms", len(ds), median(ds))
	return nil
}
