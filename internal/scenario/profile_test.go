package scenario

import (
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"

	"mobilenet/internal/prof"
)

// profileSpec builds a spec for engine that runs long enough for stepping to
// dominate setup, bounded so the test stays fast.
func profileSpec(engine string) Spec {
	spec := Spec{Engine: engine, Nodes: 4096, Agents: 32, Seed: 7, MaxSteps: 256, Profile: true}
	if engine == EngineMeeting {
		spec.Radius = 4
	}
	return spec
}

// TestPhaseSumsMatchStepWallClock is the profiler's accounting contract,
// checked across all six engines: under Spec.Profile every replicate reports
// a phase breakdown whose fractions sum to one and whose total seconds sit
// inside the measured RunRep wall-clock — at most the whole call, at least
// most of it (every step is charged, so only setup goes uncharged).
func TestPhaseSumsMatchStepWallClock(t *testing.T) {
	for _, engine := range Engines() {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			c, err := profileSpec(engine).Canonical()
			if err != nil {
				t.Fatal(err)
			}
			// Canonical zeroes execution-only knobs; re-enable profiling the
			// way RunWithTrace does.
			c.Profile = true
			r, ok := Lookup(engine)
			if !ok {
				t.Fatalf("engine %s not registered", engine)
			}
			t0 := time.Now()
			rep, err := r.RunRep(context.Background(), c, c.Seed)
			wall := time.Since(t0).Seconds()
			if err != nil {
				t.Fatal(err)
			}
			b := rep.Phases
			if b == nil {
				t.Fatal("profiled replicate carries no phase breakdown")
			}
			if b.Steps <= 0 {
				t.Fatalf("breakdown covers %d steps", b.Steps)
			}
			var fsum float64
			for name, f := range b.Fractions {
				if _, ok := b.Seconds[name]; !ok {
					t.Errorf("fraction for %s without a seconds entry", name)
				}
				fsum += f
			}
			if math.Abs(fsum-1) > 1e-3 {
				t.Errorf("fractions sum to %v, want 1 ± 0.001 (%v)", fsum, b.Fractions)
			}
			total := b.TotalSeconds()
			t.Logf("phase total / RunRep wall = %.3f over %d steps, wall %.1fµs", total/wall, b.Steps, wall*1e6)
			// Upper bound: charged time cannot exceed the whole RunRep call
			// (epsilon absorbs float rounding only — the clock reads nest).
			if total > wall*1.001+1e-6 {
				t.Errorf("phase total %.6fs exceeds RunRep wall-clock %.6fs", total, wall)
			}
			// Lower bound: the charged total counts every step, so only
			// setup, and at most a few trailing steps, go uncharged.
			// Measured medians are 0.94–0.99 per engine and the minima
			// 0.90–0.99 over 40 runs, half under a concurrent test load;
			// the floor leaves room for a loaded CI machine. The meeting
			// replicate is ~40µs end to end, where one GC or preemption
			// during setup is a large share (it read 0.31 once), hence its
			// lower floor.
			if floor := spanFloor(engine); total < wall*floor {
				t.Errorf("phase total %.6fs is under %.0f%% of wall-clock %.6fs — steps are going uncharged", total, floor*100, wall)
			}
			for name := range b.Seconds {
				if !validPhaseName(name) {
					t.Errorf("breakdown uses phase %q outside the fixed vocabulary", name)
				}
			}
		})
	}
}

// spanFloor is the least share of a profileSpec replicate's RunRep wall
// clock that its phase total must cover.
func spanFloor(engine string) float64 {
	if engine == EngineMeeting {
		return 0.1
	}
	return 0.5
}

func validPhaseName(name string) bool {
	for _, n := range prof.PhaseNames() {
		if n == name {
			return true
		}
	}
	return false
}

// TestProfileIsExecutionOnly pins the determinism contract: profiling never
// splits the content hash, and a profiled run's outcome — everything except
// the Phases timing annotation — is byte-identical to an unprofiled run.
func TestProfileIsExecutionOnly(t *testing.T) {
	t.Parallel()
	base := Spec{Engine: EngineBroadcast, Nodes: 1024, Agents: 16, Seed: 11, Reps: 2,
		Metrics: []string{MetricCurve, MetricCoverage}}
	baseHash, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	profiled := base
	profiled.Profile = true
	h, err := profiled.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h != baseHash {
		t.Fatalf("profile split the hash: %s vs %s", h, baseHash)
	}
	c, err := profiled.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c.Profile {
		t.Fatal("canonical form kept the profile flag")
	}

	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	profd, err := Run(profiled)
	if err != nil {
		t.Fatal(err)
	}
	if profd.Phases == nil {
		t.Fatal("profiled run reports no aggregate phases")
	}
	if plain.Phases != nil || plain.Reps[0].Phases != nil {
		t.Fatal("unprofiled run reports phases")
	}
	// Strip the timing annotations; the remaining payloads must match byte
	// for byte.
	profd.Phases = nil
	for i := range profd.Reps {
		if profd.Reps[i].Phases == nil {
			t.Fatalf("profiled rep %d carries no phases", i)
		}
		profd.Reps[i].Phases = nil
	}
	a, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(profd)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("profiling changed the result payload:\n%s\nvs\n%s", a, b)
	}
}

// TestRunWithTraceRecordsRepSpans pins the library trace path: one span per
// replicate on its own thread, annotated with the phase split, and the whole
// trace exports as valid Chrome trace-event JSON.
func TestRunWithTraceRecordsRepSpans(t *testing.T) {
	t.Parallel()
	spec := Spec{Engine: EngineBroadcast, Nodes: 1024, Agents: 16, Seed: 5, Reps: 3, Profile: true}
	tr := prof.NewTrace()
	res, err := RunWithTrace(spec, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reps) != 3 {
		t.Fatalf("got %d reps", len(res.Reps))
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("trace has %d spans, want one per replicate", len(spans))
	}
	tids := map[int64]bool{}
	for _, s := range spans {
		if s.Name != "run "+EngineBroadcast || s.Cat != "rep" {
			t.Errorf("span %+v", s)
		}
		if s.Args["seed"] == "" || s.Args["steps"] == "" {
			t.Errorf("span misses outcome args: %v", s.Args)
		}
		found := false
		for arg := range s.Args {
			if len(arg) > 6 && arg[:6] == "phase_" {
				found = true
			}
		}
		if !found {
			t.Errorf("profiled span carries no phase args: %v", s.Args)
		}
		tids[s.TID] = true
	}
	if len(tids) != 3 {
		t.Errorf("replicate spans share threads: %d distinct tids", len(tids))
	}
}
