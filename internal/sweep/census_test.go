package sweep

import (
	"reflect"
	"testing"

	"mobilenet/internal/obs"
	"mobilenet/internal/scenario"
)

// census classifies every field of one spec struct as hash-affecting or
// execution-only, each with a mutation that sets it to a different valid
// value. bases returns fresh valid values to mutate: a hash-affecting
// field must change the hash of at least one base, and an execution-only
// field must leave the hash of every base unchanged.
type census[T any] struct {
	bases         func() []T
	hash          func(T) (string, error)
	hashAffecting map[string]func(*T)
	executionOnly map[string]func(*T)
}

func (c census[T]) check(t *testing.T) {
	t.Helper()
	typ := reflect.TypeFor[T]()
	for i := range typ.NumField() {
		name := typ.Field(i).Name
		_, h := c.hashAffecting[name]
		_, e := c.executionOnly[name]
		if h == e {
			t.Errorf("%v.%s must be listed exactly once, as hash-affecting or execution-only", typ, name)
		}
	}
	for _, list := range []map[string]func(*T){c.hashAffecting, c.executionOnly} {
		for name := range list {
			if _, ok := typ.FieldByName(name); !ok {
				t.Errorf("census lists %v.%s, which is not a field", typ, name)
			}
		}
	}
	// mutated returns the hashes of base i before and after set.
	mutated := func(i int, set func(*T)) (before, after string, err error) {
		if before, err = c.hash(c.bases()[i]); err != nil {
			t.Fatalf("%v base %d: %v", typ, i, err)
		}
		v := c.bases()[i]
		set(&v)
		after, err = c.hash(v)
		return before, after, err
	}
	for name, set := range c.hashAffecting {
		changed := false
		for i := range c.bases() {
			before, after, err := mutated(i, set)
			changed = changed || (err == nil && after != before)
		}
		if !changed {
			t.Errorf("changing hash-affecting %v.%s changed no base's hash", typ, name)
		}
	}
	for name, set := range c.executionOnly {
		for i := range c.bases() {
			if before, after, err := mutated(i, set); err != nil || after != before {
				t.Errorf("changing execution-only %v.%s moved base %d's hash (err %v)", typ, name, i, err)
			}
		}
	}
}

// TestSpecFieldCensus pins which spec fields enter a content hash. A field
// added to scenario.Spec, obs.Spec, Spec or Axis fails this test until it
// is classified here, and every classification is checked against Hash —
// so a new execution-only knob cannot split the cache unnoticed, and a new
// simulation parameter cannot be dropped from the hash.
func TestSpecFieldCensus(t *testing.T) {
	t.Parallel()
	// One valid scenario per engine: a field that only one engine reads
	// (preys, rumors, source) shows up in that engine's hash.
	scenarios := func() []scenario.Spec {
		var out []scenario.Spec
		for _, e := range scenario.Engines() {
			out = append(out, scenario.Spec{Engine: e, Nodes: 1024, Agents: 16, Radius: 1, Seed: 7})
		}
		return out
	}
	census[scenario.Spec]{
		bases: scenarios,
		hash:  scenario.Spec.Hash,
		hashAffecting: map[string]func(*scenario.Spec){
			"Engine":   func(s *scenario.Spec) { s.Engine = scenario.EngineGossip },
			"Nodes":    func(s *scenario.Spec) { s.Nodes = 4096 },
			"Agents":   func(s *scenario.Spec) { s.Agents = 32 },
			"Radius":   func(s *scenario.Spec) { s.Radius = 2 },
			"Seed":     func(s *scenario.Spec) { s.Seed = 8 },
			"Source":   func(s *scenario.Spec) { s.Source = 3 },
			"MaxSteps": func(s *scenario.Spec) { s.MaxSteps = 77 },
			"Reps":     func(s *scenario.Spec) { s.Reps = 3 },
			"Preys":    func(s *scenario.Spec) { s.Preys = 3 },
			"Rumors":   func(s *scenario.Spec) { s.Rumors = 4 },
			"Mobility": func(s *scenario.Spec) { s.Mobility = "levy:alpha=1.6" },
			"Metrics":  func(s *scenario.Spec) { s.Metrics = []string{scenario.MetricCurve} },
			"Observe":  func(s *scenario.Spec) { s.Observe = &obs.Spec{Observables: []string{obs.Informed}} },
		},
		executionOnly: map[string]func(*scenario.Spec){
			"Label":       func(s *scenario.Spec) { s.Label = "renamed" },
			"Parallelism": func(s *scenario.Spec) { s.Parallelism = 4 },
			"Profile":     func(s *scenario.Spec) { s.Profile = true },
		},
	}.check(t)

	census[obs.Spec]{
		bases: func() []obs.Spec { return []obs.Spec{{Observables: []string{obs.Informed}}} },
		hash: func(o obs.Spec) (string, error) {
			return scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: 1024, Agents: 16, Observe: &o}.Hash()
		},
		hashAffecting: map[string]func(*obs.Spec){
			"Observables": func(o *obs.Spec) { o.Observables = append(o.Observables, obs.Components) },
			"Every":       func(o *obs.Spec) { o.Every = 4 },
			"MaxPoints":   func(o *obs.Spec) { o.MaxPoints = 8 },
		},
	}.check(t)

	base := scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: 1024, Agents: 16, Radius: 1}
	census[Spec]{
		bases: func() []Spec {
			return []Spec{{Base: base, Axes: []Axis{
				{Field: "agents", Values: []any{8, 16}},
				{Field: "seed", Values: []any{1, 2}},
			}}}
		},
		hash: Spec.Hash,
		hashAffecting: map[string]func(*Spec){
			"Base": func(s *Spec) { s.Base.Nodes = 4096 },
			"Axes": func(s *Spec) { s.Axes = append(s.Axes, Axis{Field: "radius", Values: []any{1, 2}}) },
			"Mode": func(s *Spec) { s.Mode = ModeZip },
		},
		// Fit only post-processes the point results: the sweep hash
		// addresses the set of simulations, which a fit never changes.
		executionOnly: map[string]func(*Spec){
			"Label": func(s *Spec) { s.Label = "renamed" },
			"Fit":   func(s *Spec) { s.Fit = "agents" },
		},
	}.check(t)

	n := func(v int64) *int64 { return &v }
	census[Axis]{
		bases: func() []Axis {
			return []Axis{
				{Field: "agents", Values: []any{8, 16}},
				{Field: "agents", From: n(8), To: n(16), Step: n(8)},
			}
		},
		hash: func(a Axis) (string, error) { return Spec{Base: base, Axes: []Axis{a}}.Hash() },
		hashAffecting: map[string]func(*Axis){
			"Field":  func(a *Axis) { a.Field = "seed" },
			"Values": func(a *Axis) { a.Values = append(a.Values, 32) },
			"From":   func(a *Axis) { a.From = n(4) },
			"To":     func(a *Axis) { a.To = n(24) },
			"Step":   func(a *Axis) { a.Step = n(4) },
		},
	}.check(t)
}
