package mobilenet_test

import (
	"encoding/json"
	"strings"
	"testing"

	"mobilenet"
	"mobilenet/internal/sweep"
)

func testSweep() mobilenet.Sweep {
	return mobilenet.Sweep{
		Label: "public sweep",
		Base:  mobilenet.Scenario{Engine: "broadcast", Nodes: 256, Agents: 4, Seed: 17, Reps: 2},
		Axes: []mobilenet.SweepAxis{
			{Field: "agents", Values: []any{4, 8}},
			{Field: "radius", Values: []any{0, 1}},
		},
		Fit: "agents",
	}
}

func TestParseSweepRoundTrip(t *testing.T) {
	t.Parallel()
	s := testSweep()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := mobilenet.ParseSweep(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Label != s.Label || len(back.Axes) != 2 || back.Fit != "agents" {
		t.Fatalf("round trip changed the sweep: %+v", back)
	}
	if _, err := mobilenet.ParseSweep([]byte(`{"base":{},"axez":[]}`)); err == nil {
		t.Error("typoed field accepted")
	}
}

func TestSweepValidateAndHash(t *testing.T) {
	t.Parallel()
	s := testSweep()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	h1, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	// Axis order must not move the hash.
	r := s
	r.Axes = []mobilenet.SweepAxis{s.Axes[1], s.Axes[0]}
	h2, err := r.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("axis order split the sweep hash")
	}
	bad := s
	bad.Axes = nil
	if err := bad.Validate(); err == nil {
		t.Error("axis-free sweep validated")
	}
	if !strings.Contains(strings.Join(mobilenet.SweepFields(), ","), "agents") {
		t.Error("SweepFields misses agents")
	}
}

// TestRunSweepMatchesInternal pins the public mirror: RunSweep's JSON
// encoding is byte-identical to the internal sweep result (and therefore
// to the mobiserved sweep payload for the same spec).
func TestRunSweepMatchesInternal(t *testing.T) {
	t.Parallel()
	s := testSweep()
	pub, err := mobilenet.RunSweep(s)
	if err != nil {
		t.Fatal(err)
	}
	internalRes, err := sweep.Run(mustInternalSpec(t, s), sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(pub)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(internalRes)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("public sweep result diverges from internal:\n%s\nvs\n%s", a, b)
	}
	if pub.Fit == nil || pub.Fit.Axis != "agents" {
		t.Errorf("fit missing from public result: %+v", pub.Fit)
	}
	for i, p := range pub.Points {
		direct, err := mobilenet.RunScenario(p.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if direct.Hash != p.Hash {
			t.Errorf("point %d hash mismatch", i)
		}
		if direct.MeanSteps != p.Result.MeanSteps {
			t.Errorf("point %d result diverges from RunScenario", i)
		}
	}
}

// mustInternalSpec reparses the public sweep through the internal layer
// (the public struct marshals to the same JSON the internal Parse reads).
func mustInternalSpec(t *testing.T, s mobilenet.Sweep) sweep.Spec {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sweep.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestRunSweepSurfacesPointErrors(t *testing.T) {
	t.Parallel()
	s := mobilenet.Sweep{
		Base: mobilenet.Scenario{Engine: "broadcast", Nodes: 256, Agents: 4, Seed: 1},
		Axes: []mobilenet.SweepAxis{{Field: "agents", Values: []any{4, 0}}},
	}
	if _, err := mobilenet.RunSweep(s); err == nil || !strings.Contains(err.Error(), "point 1") {
		t.Errorf("invalid point not surfaced with its index, got %v", err)
	}
}
