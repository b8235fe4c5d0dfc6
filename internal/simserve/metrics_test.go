package simserve

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mobilenet/internal/scenario"
	"mobilenet/internal/telemetry"
)

// TestMetricsGoldenExposition pins the full /metrics body, byte for byte,
// with every counter forced to a known value. The golden text opens with
// the pre-telemetry hand-written exposition (names, HELP lines, TYPE
// lines, value formatting and family order), so this test proves the
// migration onto internal/telemetry preserved that surface, and continues
// with the hardening counters (panics recovered, cancellations, shed):
// any renamed metric, reworded HELP, retyped family or reordered line
// fails the comparison. Chaos-injection counters are absent because the
// server runs without an injector, and histogram families materialise
// lazily with nothing recorded yet at scrape time —
// TestMetricsStageHistogramsAppear covers their appearance.
func TestMetricsGoldenExposition(t *testing.T) {
	t.Parallel()
	s := New(Config{Workers: 3})
	defer s.Shutdown(context.Background())
	s.jobsServed.Add(5)
	s.jobsFailed.Add(1)
	s.cacheHits.Add(3)
	s.cacheMisses.Add(1)
	s.sweepsServed.Add(2)
	s.sweepsFailed.Add(1)
	s.sweepPointsCached.Add(7)
	s.seriesServed.Add(4)
	s.panicsRecovered.Add(2)
	s.jobsCancelled.Add(3)
	s.shed[shedQueueFull].Add(6)
	s.shed[shedRateLimited].Add(8)

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got := rec.Header().Get("Content-Type"); got != "text/plain; version=0.0.4" {
		t.Errorf("Content-Type = %q", got)
	}
	want := `# HELP mobiserved_queue_depth Replicate tasks waiting for a worker.
# TYPE mobiserved_queue_depth gauge
mobiserved_queue_depth 0
# HELP mobiserved_workers Size of the worker pool.
# TYPE mobiserved_workers gauge
mobiserved_workers 3
# HELP mobiserved_jobs_served_total Jobs completed successfully.
# TYPE mobiserved_jobs_served_total counter
mobiserved_jobs_served_total 5
# HELP mobiserved_jobs_failed_total Jobs that ended in an error.
# TYPE mobiserved_jobs_failed_total counter
mobiserved_jobs_failed_total 1
# HELP mobiserved_cache_hits_total Submissions answered from the result cache.
# TYPE mobiserved_cache_hits_total counter
mobiserved_cache_hits_total 3
# HELP mobiserved_cache_misses_total Submissions that had to run.
# TYPE mobiserved_cache_misses_total counter
mobiserved_cache_misses_total 1
# HELP mobiserved_cache_hit_rate Fraction of submissions answered from cache.
# TYPE mobiserved_cache_hit_rate gauge
mobiserved_cache_hit_rate 0.75
# HELP mobiserved_cache_entries Results currently cached.
# TYPE mobiserved_cache_entries gauge
mobiserved_cache_entries 0
# HELP mobiserved_sweeps_served_total Sweeps completed successfully.
# TYPE mobiserved_sweeps_served_total counter
mobiserved_sweeps_served_total 2
# HELP mobiserved_sweeps_failed_total Sweeps that ended in an error.
# TYPE mobiserved_sweeps_failed_total counter
mobiserved_sweeps_failed_total 1
# HELP mobiserved_sweep_points_cached_total Sweep points answered from the result cache.
# TYPE mobiserved_sweep_points_cached_total counter
mobiserved_sweep_points_cached_total 7
# HELP mobiserved_series_served_total Observed-series payloads served.
# TYPE mobiserved_series_served_total counter
mobiserved_series_served_total 4
# HELP mobiserved_panics_recovered_total Engine panics caught at the worker's replicate boundary.
# TYPE mobiserved_panics_recovered_total counter
mobiserved_panics_recovered_total 2
# HELP mobiserved_jobs_cancelled_total Jobs stopped before completion (deadline expiry or shutdown).
# TYPE mobiserved_jobs_cancelled_total counter
mobiserved_jobs_cancelled_total 3
# HELP mobiserved_shed_total Submissions shed at the HTTP layer by reason.
# TYPE mobiserved_shed_total counter
mobiserved_shed_total{reason="queue_full"} 6
mobiserved_shed_total{reason="rate_limited"} 8
`
	if rec.Body.String() != want {
		t.Errorf("exposition body diverged from the pinned pre-telemetry format:\ngot:\n%s\nwant:\n%s", rec.Body.String(), want)
	}
}

// TestMetricsStageHistogramsAppear runs one real scenario plus a cached
// resubmission through the service and checks the lifecycle histograms
// materialise on /metrics: the queue-wait and execution stages (the
// acceptance-criterion pair), the assembly/cache-write/admission stages,
// and the per-route HTTP family — with parseable, quantile-extractable
// bucket encodings.
func TestMetricsStageHistogramsAppear(t *testing.T) {
	t.Parallel()
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	spec := scenario.Spec{Engine: "broadcast", Nodes: 256, Agents: 8, Reps: 2, Seed: 99}
	ticket, err := s.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.Wait(ctx, ticket.JobID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(spec, SubmitOptions{}); err != nil { // cache hit
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	parsed := telemetry.ParseHistograms(body)
	for _, stage := range []string{stageAdmission, stageQueueWait, stageExecute, stageAssemble, stageCacheWrite} {
		key := `mobiserved_stage_seconds{stage="` + stage + `"}`
		h, ok := parsed[key]
		if !ok {
			t.Errorf("stage %q missing from /metrics", stage)
			continue
		}
		if h.Count() == 0 {
			t.Errorf("stage %q exposed with zero observations", stage)
		}
		if p99 := h.Quantile(0.99); p99 <= 0 {
			t.Errorf("stage %q p99 = %g", stage, p99)
		}
	}
	if h := parsed[`mobiserved_stage_seconds{stage="queue_wait"}`]; h.Count() != 2 {
		t.Errorf("queue_wait observations = %d, want one per replicate (2)", h.Count())
	}
	if h := parsed[`mobiserved_stage_seconds{stage="execute"}`]; h.Count() != 2 {
		t.Errorf("execute observations = %d, want one per replicate (2)", h.Count())
	}
	// The scrape itself went through the mux, so at least the metrics
	// route cannot have fired yet; check a route that has.
	if !strings.Contains(body, `mobiserved_http_request_seconds_bucket{route="`) {
		// Submit() above bypassed HTTP, so drive one request through the mux.
		rec2 := httptest.NewRecorder()
		s.ServeHTTP(rec2, httptest.NewRequest("GET", "/healthz", nil))
		rec3 := httptest.NewRecorder()
		s.ServeHTTP(rec3, httptest.NewRequest("GET", "/metrics", nil))
		if !strings.Contains(rec3.Body.String(), `mobiserved_http_request_seconds_bucket{route="healthz"`) {
			t.Error("HTTP route histogram did not materialise after a request")
		}
	}
}
