package simserve

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"mobilenet/internal/scenario"
	"mobilenet/internal/sweep"
)

// TestMalformedJSONBodies: syntactically broken bodies on both submit
// endpoints must come back 400 with a JSON error payload, not 500 or a
// hang.
func TestMalformedJSONBodies(t *testing.T) {
	t.Parallel()
	_, ts := testServer(t, Config{Workers: 1})
	for _, path := range []string{"/v1/run", "/v1/sweeps"} {
		for _, body := range []string{
			`{"engine":`, // truncated
			`not json at all`,
			`{"engine":"broadcast","nodes":256,"agents":8}{"engine":"gossip"}`, // trailing data
			``, // empty body
		} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			ct := resp.Header.Get("Content-Type")
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("POST %s with body %q: status %d, want 400", path, body, resp.StatusCode)
			}
			if ct != "application/json" {
				t.Errorf("POST %s error content-type %q", path, ct)
			}
		}
	}
}

// TestSweepExceedingMaxSweepPoints: a sweep expanding past the server's
// point budget is rejected synchronously (HTTP 400), both programmatically
// and over HTTP.
func TestSweepExceedingMaxSweepPoints(t *testing.T) {
	t.Parallel()
	s, ts := testServer(t, Config{Workers: 1, MaxSweepPoints: 2})
	sp := sweep.Spec{
		Base: scenario.Spec{Engine: scenario.EngineGossip, Nodes: 256, Agents: 8, Seed: 1},
		Axes: []sweep.Axis{{Field: "seed", Values: []any{int64(1), int64(2), int64(3)}}},
	}
	if _, err := s.SubmitSweep(sp, SubmitOptions{}); err == nil || !strings.Contains(err.Error(), "exceeding") {
		t.Errorf("3-point sweep accepted by a 2-point server: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(
		`{"base":{"engine":"gossip","nodes":256,"agents":8,"seed":1},
		  "axes":[{"field":"seed","values":[1,2,3]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized sweep over HTTP: status %d, want 400", resp.StatusCode)
	}
	// An in-budget sweep still runs on the same server.
	sp.Axes = []sweep.Axis{{Field: "seed", Values: []any{int64(1), int64(2)}}}
	ticket, err := s.SubmitSweep(sp, SubmitOptions{})
	if err != nil {
		t.Fatalf("in-budget sweep rejected: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.WaitSweep(ctx, ticket.SweepID); err != nil {
		t.Fatal(err)
	}
}

// TestWaitWithCancelledContext: Wait on an already-cancelled context
// returns the context's error promptly instead of blocking on the job, and
// the job itself still completes and stays fetchable.
func TestWaitWithCancelledContext(t *testing.T) {
	t.Parallel()
	s, _ := testServer(t, Config{Workers: 1})
	ticket, err := s.Submit(scenario.Spec{Engine: scenario.EngineGossip, Nodes: 256, Agents: 8, Seed: 9}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := s.Wait(cancelled, ticket.JobID); err != context.Canceled {
		t.Errorf("Wait(cancelled ctx) = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled Wait blocked for %v", elapsed)
	}
	// The job is unaffected: a live context still gets the payload.
	ctx, cancelLive := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelLive()
	if _, err := s.Wait(ctx, ticket.JobID); err != nil {
		t.Fatal(err)
	}
	// Unknown jobs surface their own error, cancelled context or not.
	if _, err := s.Wait(cancelled, "job-none"); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Errorf("Wait(unknown job) = %v", err)
	}
}

// TestWaitSweepWithCancelledContext mirrors the scenario Wait test for the
// sweep waiter.
func TestWaitSweepWithCancelledContext(t *testing.T) {
	t.Parallel()
	s, _ := testServer(t, Config{Workers: 1})
	ticket, err := s.SubmitSweep(sweep.Spec{
		Base: scenario.Spec{Engine: scenario.EngineGossip, Nodes: 256, Agents: 8, Seed: 1},
		Axes: []sweep.Axis{{Field: "seed", Values: []any{int64(4), int64(5)}}},
	}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.WaitSweep(cancelled, ticket.SweepID); err != context.Canceled {
		t.Errorf("WaitSweep(cancelled ctx) = %v, want context.Canceled", err)
	}
	ctx, cancelLive := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelLive()
	if _, err := s.WaitSweep(ctx, ticket.SweepID); err != nil {
		t.Fatal(err)
	}
}
