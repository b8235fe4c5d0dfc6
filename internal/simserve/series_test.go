package simserve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"mobilenet/internal/obs"
	"mobilenet/internal/scenario"
	"mobilenet/internal/sweep"
)

// observedSpec is the series tests' shared scenario: a small broadcast
// observing the informed count every step across three replicates.
func observedSpec() scenario.Spec {
	return scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: 256, Agents: 16,
		Radius: 1, Seed: 2011, Reps: 3,
		Observe: &obs.Spec{Observables: []string{obs.Informed}}}
}

// TestSeriesEndpoint is the service half of the acceptance criterion: the
// NDJSON streamed by GET /v1/results/{hash}/series is byte-identical to the
// library's obs.WriteNDJSON render of the same scenario, the informed
// series is monotone and ends at the population size, and repeated fetches
// (including a cache-evicted re-render) return the identical bytes.
func TestSeriesEndpoint(t *testing.T) {
	t.Parallel()
	s, ts := testServer(t, Config{Workers: 2})
	spec := observedSpec()

	direct, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := obs.WriteNDJSON(&want, direct.Series); err != nil {
		t.Fatal(err)
	}

	ticket, code := postSpec(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submission status %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.Wait(ctx, ticket.JobID); err != nil {
		t.Fatal(err)
	}

	body, code := getBody(t, ts.URL+"/v1/results/"+ticket.Hash+"/series")
	if code != http.StatusOK {
		t.Fatalf("series fetch: status %d: %s", code, body)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("service series diverges from library:\nservice: %s\nlibrary: %s", body, want.Bytes())
	}

	// While every replicate contributes (n = reps), the informed mean is
	// monotone non-decreasing; the very last aggregated step belongs to
	// the slowest replicate alone, whose final sample is the full
	// population k. (Strict whole-series monotonicity is pinned on the
	// single-replicate acceptance path in cmd/mobisim's tests — with
	// ragged multi-rep series, a finished replicate dropping out of the
	// mean can dip it.)
	var last float64
	prevFull := 0.0
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	for _, line := range lines {
		var p struct {
			Name string  `json:"name"`
			N    int     `json:"n"`
			Mean float64 `json:"mean"`
		}
		if err := json.Unmarshal([]byte(line), &p); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if p.Name != obs.Informed {
			t.Fatalf("unexpected observable %q", p.Name)
		}
		if p.N == 3 {
			if p.Mean < prevFull {
				t.Fatalf("full-n informed series not monotone: %v after %v", p.Mean, prevFull)
			}
			prevFull = p.Mean
		}
		last = p.Mean
	}
	if last != 16 {
		t.Errorf("informed series ends at %v, want 16", last)
	}

	// Repeated fetch: identical bytes (this one served from the rendered
	// cache entry).
	again, _ := getBody(t, ts.URL+"/v1/results/"+ticket.Hash+"/series")
	if !bytes.Equal(again, body) {
		t.Error("repeated series fetch returned different bytes")
	}
}

// TestSeriesNotFoundPaths: an unknown hash 404s, and a cached result whose
// scenario observed nothing 404s with the pointed no-observe message.
func TestSeriesNotFoundPaths(t *testing.T) {
	t.Parallel()
	s, ts := testServer(t, Config{Workers: 1})
	if body, code := getBody(t, ts.URL+"/v1/results/deadbeef/series"); code != http.StatusNotFound {
		t.Errorf("unknown hash series: status %d body %s", code, body)
	}
	spec := scenario.Spec{Engine: scenario.EngineGossip, Nodes: 256, Agents: 8, Seed: 5}
	ticket, err := s.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.Wait(ctx, ticket.JobID); err != nil {
		t.Fatal(err)
	}
	body, code := getBody(t, ts.URL+"/v1/results/"+ticket.Hash+"/series")
	if code != http.StatusNotFound || !strings.Contains(string(body), "observe") {
		t.Errorf("unobserved scenario series: status %d body %s", code, body)
	}
}

// TestSeriesBoundRejectsUnboundedObservation: a spec that could record
// more points per replicate than the server's MaxSeriesPoints is rejected
// at submit time, and max_points re-admits it.
func TestSeriesBoundRejectsUnboundedObservation(t *testing.T) {
	t.Parallel()
	s, _ := testServer(t, Config{Workers: 1, MaxSeriesPoints: 128})
	spec := scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: 256, Agents: 8,
		Seed: 1, MaxSteps: 100000,
		Observe: &obs.Spec{Observables: []string{obs.Informed}}}
	if _, err := s.Submit(spec, SubmitOptions{}); err == nil {
		t.Error("unbounded observation accepted past MaxSeriesPoints")
	}
	// A coarser cadence fits.
	spec.Observe = &obs.Spec{Observables: []string{obs.Informed}, Every: 1000}
	if _, err := s.Submit(spec, SubmitOptions{}); err != nil {
		t.Errorf("cadence-bounded observation rejected: %v", err)
	}
	// So does an explicit max_points, regardless of cadence.
	spec.Observe = &obs.Spec{Observables: []string{obs.Informed}, MaxPoints: 64}
	if _, err := s.Submit(spec, SubmitOptions{}); err != nil {
		t.Errorf("max_points-bounded observation rejected: %v", err)
	}
	// An oversized max_points is rejected even with a tiny max_steps: the
	// explicit budget is what the server holds clients to.
	spec.Observe = &obs.Spec{Observables: []string{obs.Informed}, MaxPoints: 4096}
	spec.MaxSteps = 10
	if _, err := s.Submit(spec, SubmitOptions{}); err == nil {
		t.Error("oversized max_points accepted")
	}
	// A spec on the engine's default (completion-targeted) cap is
	// admitted without a series check: ordinary observed scenarios must
	// not need max_points ceremony (the CPU admission posture already
	// dominates the memory a default-capped run can record).
	spec = scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: 1 << 14, Agents: 8, Seed: 1,
		MaxSteps: 500,
		Observe:  &obs.Spec{Observables: []string{obs.Informed}, Every: 4}}
	if _, err := s.Submit(spec, SubmitOptions{}); err != nil {
		t.Errorf("in-budget explicit cap rejected: %v", err)
	}
	defaultCap := scenario.Spec{Engine: scenario.EngineGossip, Nodes: 256, Agents: 8, Seed: 1,
		Observe: &obs.Spec{Observables: []string{obs.Informed}}}
	if _, err := s.Submit(defaultCap, SubmitOptions{}); err != nil {
		t.Errorf("default-cap observed spec rejected: %v", err)
	}
}

// sweepSpecWithObserve is a two-point sweep whose base carries an observe
// block, so every expanded point is an observed scenario.
func sweepSpecWithObserve() sweep.Spec {
	base := observedSpec()
	base.Reps = 2
	return sweep.Spec{
		Base: base,
		Axes: []sweep.Axis{{Field: "agents", Values: []any{int64(8), int64(16)}}},
	}
}

// TestSweepCarriesSeries: the sweep path carries series through
// point payloads untouched — an observed base rides POST /v1/sweeps and
// every per-point payload still embeds the per-rep series.
func TestSweepCarriesSeries(t *testing.T) {
	t.Parallel()
	s, _ := testServer(t, Config{Workers: 2})
	sp := sweepSpecWithObserve()
	ticket, err := s.SubmitSweep(sp, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	payload, err := s.WaitSweep(ctx, ticket.SweepID)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Points []struct {
			Hash   string           `json:"hash"`
			Result *scenario.Result `json:"result"`
		} `json:"points"`
	}
	if err := json.Unmarshal(payload, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Points) != 2 {
		t.Fatalf("points = %d", len(decoded.Points))
	}
	for i, p := range decoded.Points {
		if p.Result == nil || len(p.Result.Series) == 0 {
			t.Errorf("sweep point %d lost its series", i)
		}
		// And each point's series is individually streamable.
		if _, ok, err := s.Series(p.Hash); !ok || err != nil {
			t.Errorf("point %d series fetch: ok=%v err=%v", i, ok, err)
		}
	}
}
