package scenario

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

func TestValidateRejectsBadSpecs(t *testing.T) {
	t.Parallel()
	base := Spec{Engine: EngineBroadcast, Nodes: 256, Agents: 8}
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"unknown engine", func(s *Spec) { s.Engine = "teleport" }},
		{"zero nodes", func(s *Spec) { s.Nodes = 0 }},
		{"zero agents", func(s *Spec) { s.Agents = 0 }},
		{"negative radius", func(s *Spec) { s.Radius = -1 }},
		{"negative max_steps", func(s *Spec) { s.MaxSteps = -1 }},
		{"negative reps", func(s *Spec) { s.Reps = -1 }},
		{"source out of range", func(s *Spec) { s.Source = 8 }},
		{"source below random", func(s *Spec) { s.Source = -2 }},
		{"negative preys", func(s *Spec) { s.Preys = -1 }},
		{"rumors above k", func(s *Spec) { s.Rumors = 9 }},
		{"bad mobility", func(s *Spec) { s.Mobility = "teleport" }},
		{"trace mobility", func(s *Spec) { s.Mobility = "trace:run.mtr" }},
		{"negative waypoint pause", func(s *Spec) { s.Mobility = "waypoint:pause=-1" }},
		{"non-positive levy alpha", func(s *Spec) { s.Mobility = "levy:alpha=-2" }},
		{"ballistic turn above 1", func(s *Spec) { s.Mobility = "ballistic:turn=2" }},
		{"unknown metric", func(s *Spec) { s.Metrics = []string{"entropy"} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base
			tc.mut(&s)
			if err := s.Validate(); err == nil {
				t.Fatalf("spec %+v validated", s)
			}
		})
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base spec rejected: %v", err)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	t.Parallel()
	if _, err := Parse([]byte(`{"engine":"broadcast","nodes":256,"agents":8,"radiuss":1}`)); err == nil {
		t.Fatal("typoed field accepted")
	}
	// Trailing data (e.g. two accidentally concatenated specs) must not
	// silently run the first one.
	if _, err := Parse([]byte(`{"engine":"broadcast","nodes":256,"agents":8}{"seed":99}`)); err == nil {
		t.Fatal("trailing spec accepted")
	}
	s, err := Parse([]byte(`{"engine":"broadcast","nodes":256,"agents":8,"seed":7}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 7 || s.Engine != EngineBroadcast {
		t.Fatalf("parsed spec %+v", s)
	}
}

func TestCanonicalResolvesDefaults(t *testing.T) {
	t.Parallel()
	c, err := Spec{
		Label:   "my run",
		Engine:  " Broadcast ",
		Nodes:   250, // rounds up to 16^2
		Agents:  8,
		Preys:   3, // irrelevant to broadcast
		Rumors:  2, // irrelevant to broadcast
		Metrics: []string{"coverage", "curve", "curve"},
	}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{
		Engine:   EngineBroadcast,
		Nodes:    256,
		Agents:   8,
		Reps:     1,
		Mobility: "lazy",
		Metrics:  []string{"coverage", "curve"},
	}
	if !reflect.DeepEqual(c, want) {
		t.Fatalf("canonical = %+v, want %+v", c, want)
	}
	// Canonicalisation is idempotent.
	c2, err := c.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c2, c) {
		t.Fatalf("canonical not idempotent: %+v vs %+v", c2, c)
	}
}

func TestCanonicalEngineSpecificDefaults(t *testing.T) {
	t.Parallel()
	p, err := Spec{Engine: EnginePredator, Nodes: 256, Agents: 8}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if p.Preys != 8 {
		t.Errorf("predator preys default = %d, want 8", p.Preys)
	}
	g, err := Spec{Engine: EngineGossip, Nodes: 256, Agents: 8, Rumors: 8}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if g.Rumors != 0 {
		t.Errorf("gossip rumors=k canonicalised to %d, want 0 (classical)", g.Rumors)
	}
	cov, err := Spec{Engine: EngineCoverage, Nodes: 256, Agents: 8, Source: SourceRandom,
		Radius: 3, Metrics: []string{"coverage", "curve"}}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if cov.Source != 0 {
		t.Errorf("coverage source = %d, want 0 (ignored)", cov.Source)
	}
	if cov.Radius != 0 {
		t.Errorf("coverage radius = %d, want 0 (the cover-time engine has no radius)", cov.Radius)
	}
	if !reflect.DeepEqual(cov.Metrics, []string{"curve"}) {
		t.Errorf("coverage metrics = %v, want [curve]", cov.Metrics)
	}
}

// TestMeetingEngineSpec pins the meeting engine's spec contract: the
// separation d rides the radius field (and must be >= 1), the arena and
// population are functions of d alone, the d² horizon is made explicit,
// and non-lazy mobility is rejected rather than silently ignored.
func TestMeetingEngineSpec(t *testing.T) {
	t.Parallel()
	if err := (Spec{Engine: EngineMeeting, Nodes: 1, Agents: 1}).Validate(); err == nil {
		t.Error("meeting spec with radius 0 validated")
	}
	if err := (Spec{Engine: EngineMeeting, Nodes: 1, Agents: 1, Radius: 4, Mobility: "levy"}).Validate(); err == nil {
		t.Error("meeting spec with non-lazy mobility validated")
	}
	if err := (Spec{Engine: EngineMeeting, Nodes: 1, Agents: 1, Radius: 4, Mobility: "lazy"}).Validate(); err != nil {
		t.Errorf("explicit lazy mobility rejected: %v", err)
	}
	c, err := Spec{Engine: EngineMeeting, Nodes: 9999, Agents: 77, Radius: 4, Reps: 3}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c.Nodes != 24*24 || c.Agents != 2 {
		t.Errorf("canonical arena = (nodes %d, agents %d), want (%d, 2)", c.Nodes, c.Agents, 24*24)
	}
	if c.MaxSteps != 16 {
		t.Errorf("canonical horizon = %d, want d² = 16", c.MaxSteps)
	}
	// Nodes and Agents must not split the cache: the trial geometry is a
	// function of d alone.
	h1, err := Spec{Engine: EngineMeeting, Nodes: 1, Agents: 1, Radius: 4, Seed: 9}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Spec{Engine: EngineMeeting, Nodes: 4096, Agents: 64, Radius: 4, Seed: 9}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("meeting specs differing only in nodes/agents hash differently")
	}
	h3, err := Spec{Engine: EngineMeeting, Nodes: 1, Agents: 1, Radius: 5, Seed: 9}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Error("changing the separation left the hash unchanged")
	}
}

// TestMeetingRadiusBound: the meeting arena is 6d on a side, so a radius
// whose arena exceeds the grid cap must fail validation instead of
// panicking in Run or overflowing 6d (and d²) into a small, wrong arena
// and horizon that admission checks would then accept.
func TestMeetingRadiusBound(t *testing.T) {
	t.Parallel()
	cases := []struct {
		radius string
		ok     bool
	}{
		{"7723", true},
		{"7724", false},
		{"46340", false},
		{"3037000500", false},
		{"9000000000000000000", false},
	}
	for _, tc := range cases {
		for _, maxSteps := range []int{0, 10} {
			body := fmt.Sprintf(`{"engine":"meeting","nodes":1,"agents":1,"radius":%s,"max_steps":%d}`, tc.radius, maxSteps)
			sp, err := Parse([]byte(body))
			if err != nil {
				t.Fatalf("%s: %v", body, err)
			}
			c, err := sp.Canonical()
			if !tc.ok {
				if err == nil {
					t.Errorf("%s: accepted, canonical nodes %d max_steps %d", body, c.Nodes, c.MaxSteps)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s: %v", body, err)
				continue
			}
			side := 6 * sp.Radius
			if c.Nodes != side*side {
				t.Errorf("%s: canonical nodes %d, want %d", body, c.Nodes, side*side)
			}
			if cc, err := c.Canonical(); err != nil || !reflect.DeepEqual(cc, c) {
				t.Errorf("%s: canonical form not a fixed point: %+v, %v", body, cc, err)
			}
		}
	}
}

func TestHashIsContentAddressed(t *testing.T) {
	t.Parallel()
	a := Spec{Engine: EngineBroadcast, Nodes: 256, Agents: 8, Seed: 3, Mobility: "levy:max=40,alpha=1.6"}
	// Same simulation spelled differently: label, engine case, equivalent
	// mobility option order, explicit 1-rep.
	b := Spec{Label: "named", Engine: "BROADCAST", Nodes: 250, Agents: 8, Seed: 3,
		Reps: 1, Mobility: "levy:alpha=1.6,max=40", Preys: 5}
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Errorf("equivalent specs hash differently: %s vs %s", ha, hb)
	}
	// Grid-independent bind-time defaults resolve: leaving levy's alpha
	// (or ballistic's turn) unset is the same simulation as spelling the
	// default explicitly.
	for name, pair := range map[string][2]string{
		"levy alpha":     {"levy:max=40", "levy:alpha=1.6,max=40"},
		"ballistic turn": {"ballistic", "ballistic:turn=0.05"},
	} {
		s1 := Spec{Engine: EngineBroadcast, Nodes: 256, Agents: 8, Mobility: pair[0]}
		s2 := Spec{Engine: EngineBroadcast, Nodes: 256, Agents: 8, Mobility: pair[1]}
		h1, err := s1.Hash()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h2, err := s2.Hash()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h1 != h2 {
			t.Errorf("%s: default-equivalent specs hash differently", name)
		}
	}
	// Any parameter change moves the hash.
	for name, mut := range map[string]func(Spec) Spec{
		"seed":     func(s Spec) Spec { s.Seed++; return s },
		"agents":   func(s Spec) Spec { s.Agents++; return s },
		"radius":   func(s Spec) Spec { s.Radius++; return s },
		"engine":   func(s Spec) Spec { s.Engine = EngineGossip; return s },
		"mobility": func(s Spec) Spec { s.Mobility = "ballistic"; return s },
		"metrics":  func(s Spec) Spec { s.Metrics = []string{MetricCurve}; return s },
		"reps":     func(s Spec) Spec { s.Reps = 2; return s },
	} {
		h, err := mut(a).Hash()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h == ha {
			t.Errorf("changing %s left the hash unchanged", name)
		}
	}
}

// TestParallelismIsExecutionOnly pins the contract that the parallelism
// knob never splits the content address: canonicalisation zeroes it, so
// specs differing only in parallelism hash — and therefore cache —
// identically, while negative values are still rejected up front.
func TestParallelismIsExecutionOnly(t *testing.T) {
	t.Parallel()
	base := Spec{Engine: EngineBroadcast, Nodes: 256, Agents: 8, Seed: 3}
	baseHash, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 16} {
		s := base
		s.Parallelism = p
		h, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h != baseHash {
			t.Errorf("parallelism %d split the hash: %s vs %s", p, h, baseHash)
		}
		c, err := s.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if c.Parallelism != 0 {
			t.Errorf("canonical form kept parallelism %d", c.Parallelism)
		}
	}
	bad := base
	bad.Parallelism = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative parallelism accepted")
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	t.Parallel()
	s := Spec{Engine: EnginePredator, Nodes: 1024, Agents: 16, Radius: 1, Seed: 42,
		Preys: 8, Reps: 3, Mobility: "waypoint:pause=2"}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Fatalf("round trip changed the spec: %+v vs %+v", back, s)
	}
}

func TestRepSeedSchedule(t *testing.T) {
	t.Parallel()
	if RepSeed(42, 0) != 42 {
		t.Errorf("rep 0 must run under the master seed, got %d", RepSeed(42, 0))
	}
	seen := map[uint64]bool{}
	for rep := 0; rep < 64; rep++ {
		s := RepSeed(42, rep)
		if seen[s] {
			t.Fatalf("rep seed collision at rep %d", rep)
		}
		seen[s] = true
	}
}
