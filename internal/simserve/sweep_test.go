package simserve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mobilenet/internal/scenario"
	"mobilenet/internal/sweep"
)

func contextWithTimeout(t *testing.T) (context.Context, context.CancelFunc) {
	t.Helper()
	return context.WithTimeout(context.Background(), 30*time.Second)
}

func testSweepSpec() sweep.Spec {
	return sweep.Spec{
		Label: "k x r grid",
		Base:  scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: 256, Agents: 4, Seed: 21, Reps: 2},
		Axes: []sweep.Axis{
			{Field: "agents", Values: []any{4, 8}},
			{Field: "radius", Values: []any{0, 1}},
		},
	}
}

func postSweep(t *testing.T, ts *httptest.Server, sp sweep.Spec) (SweepTicket, int) {
	t.Helper()
	body, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ticket SweepTicket
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&ticket); err != nil {
			t.Fatal(err)
		}
	}
	return ticket, resp.StatusCode
}

func pollSweep(t *testing.T, ts *httptest.Server, id string) SweepView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v SweepView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.Status == StatusDone || v.Status == StatusFailed {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("sweep %s did not finish in time", id)
	return SweepView{}
}

// TestSweepEndToEndOverHTTP drives the acceptance criterion: a sweep run
// over POST /v1/sweeps produces per-point results byte-identical to both
// the library sweep path and direct scenario runs, and resubmitting the
// sweep is served point by point from the result cache.
func TestSweepEndToEndOverHTTP(t *testing.T) {
	t.Parallel()
	_, ts := testServer(t, Config{Workers: 4})
	sp := testSweepSpec()

	ticket, code := postSweep(t, ts, sp)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	if ticket.Points != 4 || ticket.SweepID == "" || ticket.Hash == "" {
		t.Fatalf("ticket %+v", ticket)
	}
	wantHash, err := sp.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ticket.Hash != wantHash {
		t.Errorf("ticket hash %s, want %s", ticket.Hash, wantHash)
	}

	view := pollSweep(t, ts, ticket.SweepID)
	if view.Status != StatusDone {
		t.Fatalf("sweep failed: %s", view.Error)
	}
	if view.PointsDone != 4 || len(view.Points) != 4 {
		t.Fatalf("progress %+v", view)
	}

	// The service's sweep result must match the library's byte for byte.
	libRes, err := sweep.Run(sp, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	libBytes, err := json.Marshal(libRes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(view.Result, libBytes) {
		t.Errorf("service sweep result diverges from library:\n%s\nvs\n%s", view.Result, libBytes)
	}

	// Each per-point payload must match a direct scenario run byte for
	// byte, and be fetchable under the point's content hash.
	var decoded sweep.Result
	if err := json.Unmarshal(view.Result, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, p := range decoded.Points {
		direct, err := scenario.Run(p.Spec)
		if err != nil {
			t.Fatal(err)
		}
		directBytes, err := json.Marshal(direct)
		if err != nil {
			t.Fatal(err)
		}
		pointBytes, err := json.Marshal(p.Result)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pointBytes, directBytes) {
			t.Errorf("point %d result diverges from direct scenario run", p.Index)
		}
		cached, code := getBody(t, ts.URL+"/v1/results/"+p.Hash)
		if code != http.StatusOK {
			t.Fatalf("point %d result not fetchable: %d", p.Index, code)
		}
		if !bytes.Equal(bytes.TrimSpace(cached), directBytes) {
			t.Errorf("point %d /v1/results payload diverges", p.Index)
		}
	}

	// Resubmission: every point is answered from the result cache.
	ticket2, code := postSweep(t, ts, sp)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit returned %d", code)
	}
	view2 := pollSweep(t, ts, ticket2.SweepID)
	if view2.Status != StatusDone {
		t.Fatalf("resubmitted sweep failed: %s", view2.Error)
	}
	if view2.PointsCached != 4 {
		t.Errorf("resubmission served %d of 4 points from cache", view2.PointsCached)
	}
	for _, p := range view2.Points {
		if !p.Cached || p.Status != StatusDone {
			t.Errorf("point %d not served from cache: %+v", p.Index, p)
		}
	}
	if !bytes.Equal(view2.Result, view.Result) {
		t.Error("cached resubmission produced different sweep result bytes")
	}
}

// TestSweepOverlapDedup pins point-level dedup across different sweeps:
// a second sweep sharing half its points with a finished one only runs
// the new half.
func TestSweepOverlapDedup(t *testing.T) {
	t.Parallel()
	s, ts := testServer(t, Config{Workers: 4})
	first := sweep.Spec{
		Base: scenario.Spec{Engine: scenario.EngineCoverage, Nodes: 64, Agents: 2, Seed: 5},
		Axes: []sweep.Axis{{Field: "agents", Values: []any{2, 4}}},
	}
	ticket, _ := postSweep(t, ts, first)
	if v := pollSweep(t, ts, ticket.SweepID); v.Status != StatusDone {
		t.Fatalf("first sweep failed: %s", v.Error)
	}
	second := first
	second.Axes = []sweep.Axis{{Field: "agents", Values: []any{2, 4, 8, 16}}}
	ticket2, _ := postSweep(t, ts, second)
	v := pollSweep(t, ts, ticket2.SweepID)
	if v.Status != StatusDone {
		t.Fatalf("second sweep failed: %s", v.Error)
	}
	if v.PointsCached != 2 {
		t.Errorf("overlapping sweep served %d points from cache, want 2", v.PointsCached)
	}
	if s.sweepPointsCached.Load() != 2 {
		t.Errorf("sweep_points_cached counter = %d", s.sweepPointsCached.Load())
	}
}

// TestSweepDuplicatePointsShareOneSubmission pins in-sweep dedup: points
// that canonicalise identically are submitted once.
func TestSweepDuplicatePointsShareOneSubmission(t *testing.T) {
	t.Parallel()
	s, ts := testServer(t, Config{Workers: 2})
	sp := sweep.Spec{
		Base: scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: 256, Agents: 4, Seed: 9},
		Mode: sweep.ModeZip,
		// Rumors is irrelevant to broadcast, so both points are the same
		// canonical scenario.
		Axes: []sweep.Axis{{Field: "rumors", Values: []any{0, 1}}},
	}
	ticket, _ := postSweep(t, ts, sp)
	v := pollSweep(t, ts, ticket.SweepID)
	if v.Status != StatusDone {
		t.Fatalf("sweep failed: %s", v.Error)
	}
	if got := s.cacheMisses.Load(); got != 1 {
		t.Errorf("duplicate points caused %d cache misses, want 1", got)
	}
	if v.Points[0].Hash != v.Points[1].Hash {
		t.Error("duplicate points have different hashes")
	}
}

// TestSweepFirstErrorSemantics mirrors the library regression test at the
// service level: an invalid point fails the sweep with the lowest-indexed
// point's error.
func TestSweepFailureSurfacesLowestPoint(t *testing.T) {
	t.Parallel()
	_, ts := testServer(t, Config{Workers: 2, MaxSteps: 500})
	// Points 1+ exceed the server's effective step bound via max_steps.
	sp := sweep.Spec{
		Base: scenario.Spec{Engine: scenario.EngineCoverage, Nodes: 64, Agents: 2, Seed: 5, MaxSteps: 400},
		Axes: []sweep.Axis{{Field: "max_steps", Values: []any{400, 600, 700}}},
	}
	_, code := postSweep(t, ts, sp)
	if code != http.StatusBadRequest {
		t.Fatalf("oversized sweep point accepted with %d", code)
	}
	// Runtime failures (not admission failures) surface through the view:
	// submit a sweep whose later point exceeds the queue structurally.
	_, ts2 := testServer(t, Config{Workers: 1, QueueDepth: 4})
	sp2 := sweep.Spec{
		Base: scenario.Spec{Engine: scenario.EngineCoverage, Nodes: 64, Agents: 2, Seed: 5},
		Axes: []sweep.Axis{{Field: "reps", Values: []any{1, 8, 8, 8}}},
	}
	ticket, code := postSweep(t, ts2, sp2)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	v := pollSweep(t, ts2, ticket.SweepID)
	if v.Status != StatusFailed {
		t.Fatalf("sweep with unservable points finished %s", v.Status)
	}
	// Points 1-3 are identical (8 reps > queue depth 4); the lowest
	// failed index is 1.
	if !strings.Contains(v.Error, "point 1") {
		t.Errorf("sweep error %q does not name the lowest-indexed failed point", v.Error)
	}
	if v.Points[0].Status != StatusDone {
		t.Errorf("healthy point 0 reported %s", v.Points[0].Status)
	}
}

func TestSweepHTTPErrors(t *testing.T) {
	t.Parallel()
	_, ts := testServer(t, Config{Workers: 1, MaxSweepPoints: 4})
	// Malformed body.
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed sweep returned %d", resp.StatusCode)
	}
	// Expansion above the server's point bound.
	sp := sweep.Spec{
		Base: scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: 256, Agents: 4, Seed: 1},
		Axes: []sweep.Axis{{Field: "seed", From: i64p(0), To: i64p(15), Step: i64p(1)}},
	}
	if _, code := postSweep(t, ts, sp); code != http.StatusBadRequest {
		t.Errorf("oversized sweep returned %d", code)
	}
	// Unknown sweep id.
	if _, code := getBody(t, ts.URL+"/v1/sweeps/sweep-999"); code != http.StatusNotFound {
		t.Errorf("unknown sweep returned %d", code)
	}
}

func i64p(v int64) *int64 { return &v }

func TestSweepMetricsExposed(t *testing.T) {
	t.Parallel()
	_, ts := testServer(t, Config{Workers: 2})
	ticket, _ := postSweep(t, ts, testSweepSpec())
	if v := pollSweep(t, ts, ticket.SweepID); v.Status != StatusDone {
		t.Fatalf("sweep failed: %s", v.Error)
	}
	body, code := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics returned %d", code)
	}
	for _, metric := range []string{
		"mobiserved_sweeps_served_total 1",
		"mobiserved_sweeps_failed_total 0",
		"mobiserved_sweep_points_cached_total",
	} {
		if !strings.Contains(string(body), metric) {
			t.Errorf("metrics missing %q:\n%s", metric, body)
		}
	}
}

// TestSweepShutdown pins that Shutdown drains in-flight sweeps instead of
// leaking their dispatchers, and that new sweeps are rejected after.
func TestSweepShutdownRejectsNewSweeps(t *testing.T) {
	t.Parallel()
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()
	ticket, code := postSweep(t, ts, testSweepSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	ctx, cancel := contextWithTimeout(t)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The in-flight sweep either completed or failed cleanly — it must
	// not be stuck queued/running.
	v, ok := s.Sweep(ticket.SweepID)
	if !ok {
		t.Fatal("sweep record lost")
	}
	if v.Status != StatusDone && v.Status != StatusFailed {
		t.Errorf("sweep left in state %s after shutdown", v.Status)
	}
	if _, err := s.SubmitSweep(testSweepSpec(), SubmitOptions{}); err == nil {
		t.Error("sweep accepted after shutdown")
	}
}
