package simserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mobilenet/internal/scenario"
)

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

func postSpec(t *testing.T, ts *httptest.Server, spec scenario.Spec) (Ticket, int) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ticket Ticket
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&ticket); err != nil {
			t.Fatal(err)
		}
	}
	return ticket, resp.StatusCode
}

func pollJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.Status == StatusDone || v.Status == StatusFailed || v.Status == StatusCancelled {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return JobView{}
}

func getBody(t *testing.T, url string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.StatusCode
}

// TestEndToEndBroadcastOverHTTP is the acceptance path: submit a broadcast
// scenario over HTTP, poll the job, fetch the result by hash, and verify a
// repeated submission is answered from the cache with the identical bytes.
func TestEndToEndBroadcastOverHTTP(t *testing.T) {
	t.Parallel()
	_, ts := testServer(t, Config{Workers: 2})
	spec := scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: 1024, Agents: 16,
		Radius: 1, Seed: 2011, Metrics: []string{scenario.MetricCurve, scenario.MetricCoverage}}

	ticket, code := postSpec(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("first submission: status %d", code)
	}
	if ticket.Cached || ticket.JobID == "" || ticket.Hash == "" {
		t.Fatalf("first submission ticket %+v", ticket)
	}

	view := pollJob(t, ts, ticket.JobID)
	if view.Status != StatusDone {
		t.Fatalf("job ended %s: %s", view.Status, view.Error)
	}

	payload, code := getBody(t, ts.URL+"/v1/results/"+ticket.Hash)
	if code != http.StatusOK {
		t.Fatalf("result fetch: status %d", code)
	}
	if !bytes.Equal(payload, view.Result) {
		t.Error("job result and cached payload differ")
	}

	// Repeated submission: answered from cache, same bytes.
	ticket2, code := postSpec(t, ts, spec)
	if code != http.StatusOK {
		t.Fatalf("repeat submission: status %d", code)
	}
	if !ticket2.Cached || ticket2.Hash != ticket.Hash {
		t.Fatalf("repeat submission ticket %+v", ticket2)
	}
	payload2, _ := getBody(t, ts.URL+"/v1/results/"+ticket.Hash)
	if !bytes.Equal(payload2, payload) {
		t.Error("cache hit returned a different payload")
	}

	var res scenario.Result
	if err := json.Unmarshal(payload, &res); err != nil {
		t.Fatal(err)
	}
	if res.Engine != scenario.EngineBroadcast || len(res.Reps) != 1 || !res.Reps[0].Completed {
		t.Errorf("unexpected result %+v", res)
	}
}

// TestServiceMatchesLibraryByteForByte is the determinism satellite: the
// same scenario + seed through the service returns bytes identical to a
// direct library (scenario.Run) call, for every engine, including a
// multi-rep job fanned across workers.
func TestServiceMatchesLibraryByteForByte(t *testing.T) {
	t.Parallel()
	_, ts := testServer(t, Config{Workers: 4})
	specs := []scenario.Spec{
		{Engine: scenario.EngineBroadcast, Nodes: 256, Agents: 8, Seed: 7, Reps: 5,
			Metrics: []string{scenario.MetricCurve}},
		{Engine: scenario.EngineGossip, Nodes: 256, Agents: 8, Seed: 7},
		{Engine: scenario.EngineFrog, Nodes: 256, Agents: 8, Seed: 7},
		{Engine: scenario.EngineCoverage, Nodes: 256, Agents: 8, Seed: 7, Reps: 3},
		{Engine: scenario.EnginePredator, Nodes: 256, Agents: 8, Seed: 7, Preys: 4},
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Engine, func(t *testing.T) {
			t.Parallel()
			direct, err := scenario.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(direct)
			if err != nil {
				t.Fatal(err)
			}
			ticket, code := postSpec(t, ts, spec)
			if code != http.StatusAccepted {
				t.Fatalf("submission status %d", code)
			}
			view := pollJob(t, ts, ticket.JobID)
			if view.Status != StatusDone {
				t.Fatalf("job ended %s: %s", view.Status, view.Error)
			}
			if !bytes.Equal(view.Result, want) {
				t.Errorf("service result diverges from library:\nservice: %s\nlibrary: %s", view.Result, want)
			}
		})
	}
}

func TestSubmissionCoalescing(t *testing.T) {
	t.Parallel()
	// One worker and a slow-ish job so the second submission lands while
	// the first is still in flight.
	s, _ := testServer(t, Config{Workers: 1})
	spec := scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: 4096, Agents: 16, Seed: 1, Reps: 4}
	t1, err := s.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := s.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if t2.Cached {
		t.Fatal("second submission claims cached while first is in flight")
	}
	if t2.JobID != t1.JobID {
		t.Errorf("identical in-flight submissions got distinct jobs %s and %s", t1.JobID, t2.JobID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.Wait(ctx, t1.JobID); err != nil {
		t.Fatal(err)
	}
}

func TestQueueFull(t *testing.T) {
	t.Parallel()
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer s.Shutdown(context.Background())
	if _, err := s.Submit(scenario.Spec{Engine: scenario.EngineBroadcast,
		Nodes: 256, Agents: 4, Seed: 1, Reps: 3}, SubmitOptions{}); err == nil {
		t.Error("3-rep job accepted into a depth-2 queue")
	}
	// Distinct seeds so the jobs do not coalesce.
	var errs int
	for seed := uint64(1); seed <= 16; seed++ {
		_, err := s.Submit(scenario.Spec{Engine: scenario.EngineBroadcast,
			Nodes: 4096, Agents: 8, Seed: seed, Reps: 2}, SubmitOptions{})
		if err != nil {
			errs++
		}
	}
	if errs == 0 {
		t.Error("16 two-rep jobs all fit a depth-2 queue")
	}
}

func TestHTTPErrors(t *testing.T) {
	t.Parallel()
	_, ts := testServer(t, Config{Workers: 1})
	resp, err := http.Post(ts.URL+"/v1/run", "application/json",
		strings.NewReader(`{"engine":"teleport","nodes":256,"agents":8}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad engine: status %d, want 400", resp.StatusCode)
	}
	// A replicate count no queue size could hold is structurally
	// unservable: a 400, not a retry-later 503.
	resp, err = http.Post(ts.URL+"/v1/run", "application/json",
		strings.NewReader(`{"engine":"gossip","nodes":256,"agents":8,"reps":100000}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized reps: status %d, want 400", resp.StatusCode)
	}
	if _, code := getBody(t, ts.URL+"/v1/jobs/job-999"); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
	if _, code := getBody(t, ts.URL+"/v1/results/deadbeef"); code != http.StatusNotFound {
		t.Errorf("unknown result: status %d, want 404", code)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	t.Parallel()
	s, ts := testServer(t, Config{Workers: 2})
	body, code := getBody(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz: %d %s", code, body)
	}
	spec := scenario.Spec{Engine: scenario.EngineGossip, Nodes: 256, Agents: 8, Seed: 3}
	ticket, _ := postSpec(t, ts, spec)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.Wait(ctx, ticket.JobID); err != nil {
		t.Fatal(err)
	}
	postSpec(t, ts, spec) // cache hit
	metrics, code := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	for _, want := range []string{
		"mobiserved_queue_depth",
		"mobiserved_workers 2",
		"mobiserved_jobs_served_total 1",
		"mobiserved_cache_hits_total 1",
		"mobiserved_cache_misses_total 1",
		"mobiserved_cache_hit_rate 0.5",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestConcurrentSubmissions hammers the pool from many goroutines; run
// under -race this exercises the service's locking.
func TestConcurrentSubmissions(t *testing.T) {
	t.Parallel()
	s, _ := testServer(t, Config{Workers: 4, QueueDepth: 1024})
	const n = 24
	var wg sync.WaitGroup
	ids := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Half the submissions share a seed so coalescing and cache
			// paths race with fresh jobs.
			seed := uint64(i % (n / 2))
			ticket, err := s.Submit(scenario.Spec{Engine: scenario.EngineGossip,
				Nodes: 256, Agents: 8, Seed: seed}, SubmitOptions{})
			if err != nil {
				errs[i] = err
				return
			}
			if ticket.Cached {
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			_, errs[i] = s.Wait(ctx, ticket.JobID)
			ids[i] = ticket.JobID
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("submission %d: %v", i, err)
		}
	}
}

func TestShutdownRejectsNewWork(t *testing.T) {
	t.Parallel()
	s := New(Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(scenario.Spec{Engine: scenario.EngineGossip,
		Nodes: 256, Agents: 8}, SubmitOptions{}); err == nil {
		t.Error("submission accepted after shutdown")
	}
	// Shutdown is idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Error(err)
	}
}

func TestJobEviction(t *testing.T) {
	t.Parallel()
	s, _ := testServer(t, Config{Workers: 2, MaxJobs: 2, QueueDepth: 64})
	var last Ticket
	for seed := uint64(1); seed <= 4; seed++ {
		ticket, err := s.Submit(scenario.Spec{Engine: scenario.EngineGossip,
			Nodes: 256, Agents: 8, Seed: seed}, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if _, err := s.Wait(ctx, ticket.JobID); err != nil {
			t.Fatal(err)
		}
		cancel()
		last = ticket
	}
	if _, ok := s.Job("job-1"); ok {
		t.Error("oldest finished job survived a MaxJobs=2 window")
	}
	if _, ok := s.Job(last.JobID); !ok {
		t.Error("newest job evicted")
	}
	// Evicted jobs' results remain fetchable through the cache.
	if _, ok := s.Result(mustHash(t, scenario.Spec{Engine: scenario.EngineGossip,
		Nodes: 256, Agents: 8, Seed: 1})); !ok {
		t.Error("evicted job's result missing from cache")
	}
}

func mustHash(t *testing.T, spec scenario.Spec) string {
	t.Helper()
	h, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestInvalidMobilityRejectedAtSubmit: parameter-range errors (checked at
// Bind time inside the engines) must surface as synchronous submit-time
// rejections, not as async failed jobs.
func TestInvalidMobilityRejectedAtSubmit(t *testing.T) {
	t.Parallel()
	s, ts := testServer(t, Config{Workers: 1})
	if _, err := s.Submit(scenario.Spec{Engine: scenario.EngineBroadcast,
		Nodes: 256, Agents: 8, Mobility: "waypoint:pause=-1"}, SubmitOptions{}); err == nil {
		t.Error("negative waypoint pause accepted at submit time")
	}
	resp, err := http.Post(ts.URL+"/v1/run", "application/json",
		strings.NewReader(`{"engine":"broadcast","nodes":256,"agents":8,"mobility":"levy:alpha=-2"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad mobility parameter: status %d, want 400", resp.StatusCode)
	}
}

// TestServerSizeLimits: a service bounds what one untrusted submission may
// allocate, and oversized specs are permanently unservable (400-class).
func TestServerSizeLimits(t *testing.T) {
	t.Parallel()
	s, ts := testServer(t, Config{Workers: 1, MaxNodes: 1 << 16, MaxAgents: 64})
	cases := []scenario.Spec{
		{Engine: scenario.EngineCoverage, Nodes: 1 << 20, Agents: 8},
		{Engine: scenario.EngineBroadcast, Nodes: 256, Agents: 128},
		{Engine: scenario.EnginePredator, Nodes: 256, Agents: 8, Preys: 500},
	}
	for _, spec := range cases {
		if _, err := s.Submit(spec, SubmitOptions{}); err == nil {
			t.Errorf("oversized spec %+v accepted", spec)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/run", "application/json",
		strings.NewReader(`{"engine":"coverage","nodes":1048576,"agents":8}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized nodes: status %d, want 400", resp.StatusCode)
	}
	// Within limits still runs.
	if _, err := s.Submit(scenario.Spec{Engine: scenario.EngineGossip, Nodes: 256, Agents: 8}, SubmitOptions{}); err != nil {
		t.Errorf("in-bounds spec rejected: %v", err)
	}
}

// TestServerBoundsDefaultStepCap: leaving max_steps to the engine default
// must not smuggle in an effectively unbounded run — the server bounds the
// derived cap, and an explicit in-bounds cap re-admits the spec.
func TestServerBoundsDefaultStepCap(t *testing.T) {
	t.Parallel()
	s, _ := testServer(t, Config{Workers: 1, MaxSteps: 1 << 20})
	big := scenario.Spec{Engine: scenario.EngineCoverage, Nodes: 1 << 16, Agents: 1, Seed: 1}
	if _, err := s.Submit(big, SubmitOptions{}); err == nil {
		t.Error("spec with a huge derived default cap accepted")
	}
	// The same hole must stay closed at the DEFAULT MaxSteps: an enormous
	// derived cap cannot clamp down onto the limit and slip past it.
	sd, _ := testServer(t, Config{Workers: 1})
	if _, err := sd.Submit(scenario.Spec{Engine: scenario.EngineCoverage,
		Nodes: 1 << 24, Agents: 1, Seed: 1}, SubmitOptions{}); err == nil {
		t.Error("max-size grid with default step cap accepted on a default server")
	}
	big.MaxSteps = 1000
	ticket, err := s.Submit(big, SubmitOptions{})
	if err != nil {
		t.Fatalf("explicitly capped spec rejected: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.Wait(ctx, ticket.JobID); err != nil {
		t.Fatal(err)
	}
}

// TestFailedJobBookkeeping drives the failure branch directly (validation
// now rejects every known doomed spec at submit time, so the branch guards
// against engine errors that slip past it): a fabricated in-flight job
// whose replicate errors must surface as a failed, uncached job.
func TestFailedJobBookkeeping(t *testing.T) {
	t.Parallel()
	s, _ := testServer(t, Config{Workers: 1})
	spec, err := (scenario.Spec{Engine: scenario.EngineGossip, Nodes: 256, Agents: 8}).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	j := &job{
		id: "job-test-fail", hash: "feedface", spec: spec, status: StatusRunning,
		reps: make([]scenario.Rep, 1), pending: 1, done: make(chan struct{}),
	}
	s.mu.Lock()
	s.jobs[j.id] = j
	s.inflight[j.hash] = j
	s.mu.Unlock()

	s.completeRep(j, 0, scenario.Rep{}, fmt.Errorf("engine exploded"))
	<-j.done

	v, ok := s.Job(j.id)
	if !ok || v.Status != StatusFailed {
		t.Fatalf("job view %+v, want failed", v)
	}
	if v.Error == "" || v.Result != nil {
		t.Errorf("failed job view %+v: want an error and no result", v)
	}
	if _, ok := s.Result(j.hash); ok {
		t.Error("failed job left a cached result")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := s.Wait(ctx, j.id); err == nil {
		t.Error("Wait on a failed job returned no error")
	}
	if got := s.jobsFailed.Load(); got != 1 {
		t.Errorf("jobsFailed = %d, want 1", got)
	}
}

func ExampleServer() {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ticket, err := s.Submit(scenario.Spec{Engine: scenario.EngineBroadcast,
		Nodes: 256, Agents: 8, Seed: 1}, SubmitOptions{})
	if err != nil {
		panic(err)
	}
	payload, err := s.Wait(context.Background(), ticket.JobID)
	if err != nil {
		panic(err)
	}
	var res scenario.Result
	if err := json.Unmarshal(payload, &res); err != nil {
		panic(err)
	}
	fmt.Println(res.Engine, res.AllCompleted)
	// Output: broadcast true
}
