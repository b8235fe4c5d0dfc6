package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobilenet/internal/chaos"
	"mobilenet/internal/scenario"
	"mobilenet/internal/simserve"
	"mobilenet/internal/sweep"
)

func mustChaos(t *testing.T, spec string) *chaos.Injector {
	t.Helper()
	inj, err := chaos.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// TestColdSweepOneRoundTripPerPoint pins the protocol's cost: a cold sweep
// reaches each worker as exactly one POST /v1/run per distinct point, with
// no job polls and no result fetches.
func TestColdSweepOneRoundTripPerPoint(t *testing.T) {
	t.Parallel()
	s1, w1 := testWorker(t, simserve.Config{Workers: 2})
	s2, w2 := testWorker(t, simserve.Config{Workers: 2})
	coord, _ := coordinator(t, []string{w1.URL, w2.URL}, nil)

	waitSweep(t, coord, testSweep())

	points, _ := testSweep().Expand()
	if runs := routeCount(t, s1, "run") + routeCount(t, s2, "run"); runs != len(points) {
		t.Errorf("workers served %d run requests for %d distinct points", runs, len(points))
	}
	for _, route := range []string{"jobs", "results"} {
		if n := routeCount(t, s1, route) + routeCount(t, s2, route); n != 0 {
			t.Errorf("workers served %d %s requests; the blocking run should need none", n, route)
		}
	}
}

// TestLongPointCoalescesAcrossWaits pins a point that outlives the wait
// bound: each bounded wait answers 202, the re-POST coalesces onto the
// same worker job, and the payload still matches a library run.
func TestLongPointCoalescesAcrossWaits(t *testing.T) {
	t.Parallel()
	// Three 100ms stalls at the engine's first cancellation polls keep the
	// point running well past the 20ms wait bound below.
	ws, w := testWorker(t, simserve.Config{Workers: 2, Chaos: mustChaos(t, chaos.SlowStep+":1x3:100ms")})
	var rerouted atomic.Uint64
	coord, exec := coordinator(t, []string{w.URL}, func(c *Config) {
		c.OnReroute = func(string) { rerouted.Add(1) }
	})
	exec.clients[0].wait = 20 * time.Millisecond

	sp := sweep.Spec{
		Base: scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: 4096, Agents: 8, Radius: 1, Seed: 3},
		Axes: []sweep.Axis{{Field: "seed", Values: []any{3}}},
	}
	waitSweep(t, coord, sp)

	if n := countJobs(t, ws); n != 1 {
		t.Errorf("worker ran %d jobs for one point; re-POSTs did not coalesce", n)
	}
	if n := routeCount(t, ws, "run"); n < 2 {
		t.Errorf("worker saw %d run requests; the point never outlived a wait", n)
	}
	if n := rerouted.Load(); n != 0 {
		t.Errorf("%d reroutes for a healthy worker", n)
	}
	points, _ := sp.Expand()
	got, ok := coord.Result(points[0].Hash)
	if !ok {
		t.Fatal("point not persisted on the coordinator")
	}
	res, err := scenario.Run(points[0].Spec)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(res)
	if !bytes.Equal(got, want) {
		t.Fatal("long point payload differs from the library run")
	}
}

// TestSweepFailureCancelsInflightPoint pins that a failing sweep reaches a
// point mid-wait on a worker: the blocking request is abandoned at once
// (not waited out), and the abandonment is neither a down-mark nor a
// reroute — the worker did nothing wrong.
func TestSweepFailureCancelsInflightPoint(t *testing.T) {
	t.Parallel()
	const stall = 3 * time.Second
	ws := simserve.New(simserve.Config{Workers: 2, MaxAgents: 32,
		Chaos: mustChaos(t, chaos.SlowStep+":1x1:"+stall.String())})
	// The bad point (64 agents, over the worker's bound) is held back until
	// the slow point's request is inside the worker, so the failure always
	// lands mid-wait.
	var once sync.Once
	slowIn := make(chan struct{})
	w := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		if strings.Contains(string(body), `"agents":64`) {
			<-slowIn
			time.Sleep(50 * time.Millisecond)
		} else {
			once.Do(func() { close(slowIn) })
		}
		ws.ServeHTTP(rw, r)
	}))
	t.Cleanup(func() {
		w.Close()
		ws.Shutdown(t.Context())
	})
	var rerouted atomic.Uint64
	coord, exec := coordinator(t, []string{w.URL}, func(c *Config) {
		c.OnReroute = func(string) { rerouted.Add(1) }
	})

	sp := sweep.Spec{
		Base: scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: 4096, Agents: 8, Radius: 1, Seed: 4},
		Axes: []sweep.Axis{{Field: "agents", Values: []any{8, 64}}},
	}
	ticket, err := coord.SubmitSweep(sp, simserve.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if _, err := coord.WaitSweep(t.Context(), ticket.SweepID); err == nil || !strings.Contains(err.Error(), "point 1") {
		t.Fatalf("sweep error = %v, want point 1's rejection", err)
	}
	if d := time.Since(t0); d > stall/2 {
		t.Errorf("failed sweep took %v; the in-flight point was waited out", d)
	}
	v, _ := coord.Sweep(ticket.SweepID)
	if st := v.Points[0].Status; st != simserve.StatusCancelled {
		t.Errorf("abandoned point status = %s, want cancelled", st)
	}
	if n := rerouted.Load(); n != 0 {
		t.Errorf("%d reroutes from a sweep cancellation", n)
	}
	if exec.Healthy() != 1 {
		t.Error("sweep cancellation marked the worker down")
	}
}

// TestSweepFailureSparesOverlappingSweep pins that one sweep's failure
// stays its own: sweep B shares only the healthy slow point with failing
// sweep A, asks for it while A's request is mid-wait, and still completes
// with the library payload after A abandons its request.
func TestSweepFailureSparesOverlappingSweep(t *testing.T) {
	t.Parallel()
	// The worker wrapper of TestSweepFailureCancelsInflightPoint: A's bad
	// point is held back until its slow point's request is inside the
	// worker.
	ws := simserve.New(simserve.Config{Workers: 2, MaxAgents: 32,
		Chaos: mustChaos(t, chaos.SlowStep+":1x1:1s")})
	var once sync.Once
	slowIn := make(chan struct{})
	w := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		if strings.Contains(string(body), `"agents":64`) {
			<-slowIn
			time.Sleep(50 * time.Millisecond)
		} else {
			once.Do(func() { close(slowIn) })
		}
		ws.ServeHTTP(rw, r)
	}))
	t.Cleanup(func() {
		w.Close()
		ws.Shutdown(t.Context())
	})
	coord, _ := coordinator(t, []string{w.URL}, nil)

	base := scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: 4096, Agents: 8, Radius: 1, Seed: 4}
	a := sweep.Spec{Base: base, Axes: []sweep.Axis{{Field: "agents", Values: []any{8, 64}}}}
	b := sweep.Spec{Base: base, Axes: []sweep.Axis{{Field: "agents", Values: []any{8}}}}
	ta, err := coord.SubmitSweep(a, simserve.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-slowIn
	tb, err := coord.SubmitSweep(b, simserve.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.WaitSweep(t.Context(), ta.SweepID); err == nil || !strings.Contains(err.Error(), "point 1") {
		t.Fatalf("sweep A error = %v, want point 1's rejection", err)
	}
	if _, err := coord.WaitSweep(t.Context(), tb.SweepID); err != nil {
		t.Fatalf("sweep B failed with sweep A: %v", err)
	}
	points, _ := b.Expand()
	got, ok := coord.Result(points[0].Hash)
	if !ok {
		t.Fatal("sweep B's point not persisted on the coordinator")
	}
	res, err := scenario.Run(points[0].Spec)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(res)
	if !bytes.Equal(got, want) {
		t.Fatal("sweep B's point payload differs from the library run")
	}
}

// TestNewClientKeepsSchemes pins base-URL normalisation: bare host:port
// gains http://, and an address that already names a scheme is kept.
func TestNewClientKeepsSchemes(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ addr, want string }{
		{"127.0.0.1:8081", "http://127.0.0.1:8081"},
		{"worker-1:8081", "http://worker-1:8081"},
		{"http://127.0.0.1:8081", "http://127.0.0.1:8081"},
		{"https://worker-1:8443", "https://worker-1:8443"},
	} {
		if got := NewClient(tc.addr, nil).Addr(); got != tc.want {
			t.Errorf("NewClient(%q).Addr() = %q, want %q", tc.addr, got, tc.want)
		}
	}
}
