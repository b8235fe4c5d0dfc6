package mobilenet

import (
	"fmt"
	"io"

	"mobilenet/internal/barrier"
	"mobilenet/internal/core"
	"mobilenet/internal/coverage"
	"mobilenet/internal/frog"
	"mobilenet/internal/grid"
	"mobilenet/internal/mobility"
	"mobilenet/internal/obs"
	"mobilenet/internal/percolation"
	"mobilenet/internal/predator"
	"mobilenet/internal/rng"
	"mobilenet/internal/theory"
	"mobilenet/internal/trace"
	"mobilenet/internal/visibility"
)

// Network describes one simulation setting: a grid, a population size and
// the dissemination parameters. A Network is immutable; every simulation
// method places a fresh population from the configured seed, so repeated
// calls with the same configuration reproduce the same result.
type Network struct {
	g   *grid.Grid
	k   int
	opt options
}

type options struct {
	radius   int
	seed     uint64
	source   int
	maxSteps int
	mobility mobility.Model
	observe  *obs.Spec
}

// Option customises a Network.
type Option func(*options) error

// WithRadius sets the transmission radius r (Manhattan distance). Agents in
// the same connected component of G_t(r) exchange all rumors each step.
// The default is 0: exchange on co-location only.
func WithRadius(r int) Option {
	return func(o *options) error {
		if r < 0 {
			return fmt.Errorf("mobilenet: negative radius %d", r)
		}
		o.radius = r
		return nil
	}
}

// WithSeed fixes the randomness seed; runs with equal seeds are identical.
// The default seed is 1.
func WithSeed(seed uint64) Option {
	return func(o *options) error {
		o.seed = seed
		return nil
	}
}

// WithSource selects the initially informed agent for broadcast-style runs.
// The default is agent 0; pass RandomSource for a random choice.
func WithSource(agentIdx int) Option {
	return func(o *options) error {
		if agentIdx != RandomSource && agentIdx < 0 {
			return fmt.Errorf("mobilenet: invalid source %d", agentIdx)
		}
		o.source = agentIdx
		return nil
	}
}

// RandomSource selects a uniformly random source agent (see WithSource).
const RandomSource = core.SourceRandom

// Mobility selects the motion model agents follow; build values with
// LazyWalk, RandomWaypoint, LevyFlight, Ballistic, TraceReplay or
// ParseMobility. The zero value selects the lazy walk.
type Mobility struct {
	model mobility.Model
}

// String returns the model's canonical spec name.
func (m Mobility) String() string {
	if m.model == nil {
		return mobility.Default().Name()
	}
	return m.model.Name()
}

// LazyWalk selects the paper's §2 mobility model, the 1/5-lazy simple
// random walk. It is the default; runs under it reproduce the historical
// (pre-mobility-subsystem) results bit for bit under equal seeds, and it is
// the only model the Θ̃(n/√k) bounds are proved for.
func LazyWalk() Mobility { return Mobility{mobility.LazyWalk{}} }

// RandomWaypoint selects waypoint motion: each agent repeatedly picks a
// uniform destination node, walks toward it one lattice step per tick, and
// rests pauseSteps ticks on arrival. Note the classical caveat: waypoint
// occupancy is centre-biased, not uniform.
func RandomWaypoint(pauseSteps int) Mobility {
	return Mobility{mobility.RandomWaypoint{Pause: pauseSteps}}
}

// LevyFlight selects Lévy motion: one jump per tick with uniform heading
// and truncated power-law length ∝ l^(-alpha) on [1, maxJump], wrapped on
// the torus so uniform occupancy stays stationary. Zero alpha selects 1.6;
// zero maxJump selects half the grid side.
func LevyFlight(alpha float64, maxJump int) Mobility {
	return Mobility{mobility.LevyFlight{Alpha: alpha, MaxJump: maxJump}}
}

// Ballistic selects straight-line motion on the torus with the given
// per-tick probability of resampling the direction.
func Ballistic(turnProb float64) Mobility {
	return Mobility{mobility.Ballistic{TurnProb: turnProb}}
}

// TraceReplay selects trace-driven motion, replaying a trajectory in the
// binary format written by the trace recorder (cmd/mobisim -trace). When
// loop is true agents restart at their recorded origin after exhausting the
// trace; otherwise they freeze at their final position.
func TraceReplay(r io.Reader, loop bool) (Mobility, error) {
	t, err := trace.Read(r)
	if err != nil {
		return Mobility{}, fmt.Errorf("mobilenet: %w", err)
	}
	return Mobility{mobility.TraceReplay{Trace: t, Loop: loop}}, nil
}

// ParseMobility builds a Mobility from a CLI-style spec string:
//
//	lazy | waypoint[:pause=N] | levy[:alpha=F,max=N] |
//	ballistic[:turn=F] | trace:FILE[,loop]
func ParseMobility(spec string) (Mobility, error) {
	m, err := mobility.Parse(spec)
	if err != nil {
		return Mobility{}, fmt.Errorf("mobilenet: %w", err)
	}
	return Mobility{m}, nil
}

// WithMobility sets the motion model for every simulation the Network
// runs (broadcast, gossip, frog, cover, extinction). The default is the
// paper's lazy walk.
func WithMobility(m Mobility) Option {
	return func(o *options) error {
		o.mobility = m.model
		return nil
	}
}

// WithScenario applies a scenario spec's simulation options — radius,
// seed, source, step cap and mobility — to the Network. The arena and
// population still come from New's arguments, and the engine is chosen by
// the simulation method called (or use RunScenario to let the spec drive
// everything, including n, k and the engine).
func WithScenario(s Scenario) Option {
	return func(o *options) error {
		if err := s.Validate(); err != nil {
			return err
		}
		o.radius = s.Radius
		o.seed = s.Seed
		o.source = s.Source
		o.maxSteps = s.MaxSteps
		if s.Mobility != "" {
			m, err := mobility.Parse(s.Mobility)
			if err != nil {
				return fmt.Errorf("mobilenet: %w", err)
			}
			o.mobility = m
		}
		return nil
	}
}

// WithMaxSteps caps simulation length. The default derives a generous cap
// from the theoretical Õ(n/√k) bound.
func WithMaxSteps(steps int) Option {
	return func(o *options) error {
		if steps < 0 {
			return fmt.Errorf("mobilenet: negative step cap %d", steps)
		}
		o.maxSteps = steps
		return nil
	}
}

// New builds a Network with at least nodes grid nodes (rounded up to the
// next perfect square) and the given number of agents.
func New(nodes, agents int, opts ...Option) (*Network, error) {
	g, err := grid.FromNodes(nodes)
	if err != nil {
		return nil, err
	}
	if agents <= 0 {
		return nil, fmt.Errorf("mobilenet: agent count must be positive, got %d", agents)
	}
	o := options{seed: 1}
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	if o.source != RandomSource && o.source >= agents {
		return nil, fmt.Errorf("mobilenet: source %d out of range [0,%d)", o.source, agents)
	}
	return &Network{g: g, k: agents, opt: o}, nil
}

// Nodes returns the number of grid nodes n (a perfect square).
func (nw *Network) Nodes() int { return nw.g.N() }

// Side returns the grid side length sqrt(n).
func (nw *Network) Side() int { return nw.g.Side() }

// Agents returns the number of agents k.
func (nw *Network) Agents() int { return nw.k }

// Radius returns the configured transmission radius.
func (nw *Network) Radius() int { return nw.opt.radius }

// Mobility returns the configured motion model.
func (nw *Network) Mobility() Mobility { return Mobility{nw.opt.mobility} }

// PercolationRadius returns r_c ≈ sqrt(n/k), the critical transmission
// radius separating the sparse regime (this paper) from the supercritical
// regime (Peres et al.).
func (nw *Network) PercolationRadius() float64 {
	return theory.PercolationRadius(nw.g.N(), nw.k)
}

// Subcritical reports whether the configured radius is below the
// percolation radius, i.e. whether the network is in the paper's sparse
// regime where T_B = Θ̃(n/√k).
func (nw *Network) Subcritical() bool {
	return float64(nw.opt.radius) < nw.PercolationRadius()
}

// ExpectedBroadcastScale returns n/√k, the Θ̃ scale of the broadcast time
// in the sparse regime.
func (nw *Network) ExpectedBroadcastScale() float64 {
	return theory.BroadcastScale(nw.g.N(), nw.k)
}

func (nw *Network) coreConfig() core.Config {
	return core.Config{
		Grid:     nw.g,
		K:        nw.k,
		Radius:   nw.opt.radius,
		Seed:     nw.opt.seed,
		Source:   nw.opt.source,
		MaxSteps: nw.opt.maxSteps,
		Mobility: nw.opt.mobility,
	}
}

// BroadcastResult reports the outcome of a broadcast simulation.
type BroadcastResult struct {
	// Steps is the broadcast time T_B (valid when Completed).
	Steps int
	// Completed is false when the step cap was reached first.
	Completed bool
	// Source is the index of the source agent.
	Source int
	// InformedCurve holds the informed-agent count after each step,
	// starting at t=0.
	InformedCurve []int
	// CoverageSteps is the coverage time T_C (first time informed agents
	// have visited every node), or -1 when the run ended first.
	CoverageSteps int
	// Series holds the per-step observed series under WithObservations;
	// nil otherwise.
	Series *RepSeries
}

// Broadcast runs a single-rumor dissemination from the source agent and
// returns the broadcast time along with the informed-count curve and the
// coverage time T_C.
func (nw *Network) Broadcast() (BroadcastResult, error) {
	cfg := nw.coreConfig()
	cfg.RecordCurve = true
	cfg.TrackInformedArea = true
	rec := nw.recorder("broadcast")
	cfg.Observer = rec
	r, err := core.RunBroadcast(cfg)
	if err != nil {
		return BroadcastResult{}, err
	}
	res := BroadcastResult{
		Steps:         r.Steps,
		Completed:     r.Completed,
		Source:        r.Source,
		InformedCurve: r.InformedCurve,
		CoverageSteps: r.CoverageSteps,
	}
	if rec != nil {
		res.Series = rec.Series()
	}
	return res, nil
}

// GossipResult reports the outcome of a gossip (all-to-all) simulation.
type GossipResult struct {
	// Steps is the gossip time T_G (valid when Completed).
	Steps int
	// Completed is false when the step cap was reached first.
	Completed bool
	// Series holds the per-step observed series under WithObservations;
	// nil otherwise.
	Series *RepSeries
}

// Gossip runs the all-to-all problem: every agent starts with its own rumor
// and the run ends when everyone knows everything.
func (nw *Network) Gossip() (GossipResult, error) {
	return nw.gossip(0)
}

// GossipPartial runs the multi-rumor problem with the given number of
// distinct rumors |M| ≤ k, held initially by distinct agents (the paper's
// §2 general setting). Zero selects the classical |M| = k.
func (nw *Network) GossipPartial(rumors int) (GossipResult, error) {
	return nw.gossip(rumors)
}

func (nw *Network) gossip(rumors int) (GossipResult, error) {
	cfg := nw.coreConfig()
	rec := nw.recorder("gossip")
	cfg.Observer = rec
	r, err := core.RunPartialGossip(cfg, rumors)
	if err != nil {
		return GossipResult{}, err
	}
	res := GossipResult{Steps: r.Steps, Completed: r.Completed}
	if rec != nil {
		res.Series = rec.Series()
	}
	return res, nil
}

// FrogBroadcast runs the Frog-model variant: only informed agents move,
// sleepers stay at their initial nodes until woken.
func (nw *Network) FrogBroadcast() (BroadcastResult, error) {
	src := nw.opt.source
	rec := nw.recorder("frog")
	r, err := frog.RunFrog(frog.Config{
		Grid:     nw.g,
		K:        nw.k,
		Radius:   nw.opt.radius,
		Seed:     nw.opt.seed,
		Source:   src,
		MaxSteps: nw.opt.maxSteps,
		Mobility: nw.opt.mobility,
		Observer: rec,
	})
	if err != nil {
		return BroadcastResult{}, err
	}
	res := BroadcastResult{Steps: r.Steps, Completed: r.Completed, Source: src, CoverageSteps: -1}
	if rec != nil {
		res.Series = rec.Series()
	}
	return res, nil
}

// CoverResult reports a cover-time measurement.
type CoverResult struct {
	// Steps is the cover time (valid when Completed).
	Steps int
	// Completed is false when the step cap was reached first.
	Completed bool
	// Covered is the number of nodes visited by the end of the run.
	Covered int
	// Series holds the per-step observed series under WithObservations;
	// nil otherwise.
	Series *RepSeries
}

// CoverTime measures how long the network's k agents (as plain independent
// walks, no rumors) take to visit every grid node.
func (nw *Network) CoverTime() (CoverResult, error) {
	rec := nw.recorder("coverage")
	r, err := coverage.Run(coverage.Config{
		Grid:     nw.g,
		Walkers:  nw.k,
		Seed:     nw.opt.seed,
		MaxSteps: nw.opt.maxSteps,
		Mobility: nw.opt.mobility,
		Observer: rec,
	})
	if err != nil {
		return CoverResult{}, err
	}
	res := CoverResult{Steps: r.Steps, Completed: r.Completed, Covered: r.Covered}
	if rec != nil {
		res.Series = rec.Series()
	}
	return res, nil
}

// ExtinctionResult reports a predator-prey run.
type ExtinctionResult struct {
	// Steps is the extinction time (valid when Completed).
	Steps int
	// Completed is false when the step cap was reached with survivors.
	Completed bool
	// Survivors is the number of preys alive at the end.
	Survivors int
	// Series holds the per-step observed series under WithObservations;
	// nil otherwise.
	Series *RepSeries
}

// Extinction runs a predator-prey system with the network's k agents as
// predators chasing the given number of moving preys; capture happens
// within the configured transmission radius.
func (nw *Network) Extinction(preys int) (ExtinctionResult, error) {
	rec := nw.recorder("predator")
	r, err := predator.RunExtinction(predator.Config{
		Grid:      nw.g,
		Predators: nw.k,
		Preys:     preys,
		Radius:    nw.opt.radius,
		Seed:      nw.opt.seed,
		MaxSteps:  nw.opt.maxSteps,
		Mobility:  nw.opt.mobility,
		Observer:  rec,
	})
	if err != nil {
		return ExtinctionResult{}, err
	}
	res := ExtinctionResult{Steps: r.Steps, Completed: r.Completed, Survivors: r.Survivors}
	if rec != nil {
		res.Series = rec.Series()
	}
	return res, nil
}

// ComponentCensus summarises the component structure of the initial
// visibility graph G_0(r) at an arbitrary probe radius.
type ComponentCensus struct {
	// Components is the number of connected components.
	Components int
	// MaxSize is the largest component's agent count.
	MaxSize int
	// GiantFraction is MaxSize/k.
	GiantFraction float64
	// Isolated is the number of singleton agents.
	Isolated int
}

// Census places a fresh population (per the configured seed) and censuses
// the components of G_0 at the given radius.
func (nw *Network) Census(radius int) (ComponentCensus, error) {
	if radius < 0 {
		return ComponentCensus{}, fmt.Errorf("mobilenet: negative census radius %d", radius)
	}
	pos, err := nw.initialPositions()
	if err != nil {
		return ComponentCensus{}, err
	}
	c := percolation.Snapshot(pos, radius, nil)
	return ComponentCensus{
		Components:    c.Components,
		MaxSize:       c.MaxSize,
		GiantFraction: c.GiantFraction,
		Isolated:      c.Isolated,
	}, nil
}

func (nw *Network) initialPositions() ([]grid.Point, error) {
	// Reuse core's placement so the census sees exactly the population a
	// simulation with this seed would start from.
	cfg := nw.coreConfig()
	b, err := core.NewBroadcast(cfg)
	if err != nil {
		return nil, err
	}
	pos := b.Population().Positions()
	out := make([]grid.Point, len(pos))
	copy(out, pos)
	return out, nil
}

// FloorRadius converts a real radius (e.g. a theoretical threshold) to the
// equivalent integer Manhattan radius.
func FloorRadius(r float64) int { return visibility.FloorRadius(r) }

// Obstacles describes mobility barriers for BroadcastWithObstacles — the
// extension the paper names as future work in §4. Barriers block movement
// but not radio; agents are placed on the largest connected free region.
type Obstacles struct {
	// WallColumn, when >= 0, erects a vertical wall at that x with a
	// centred gap of WallGap nodes.
	WallColumn int
	// WallGap is the opening width of the wall (only with WallColumn >= 0).
	WallGap int
	// Density, in [0, 1), additionally blocks approximately Density*n
	// uniformly random nodes.
	Density float64
}

// None reports whether the spec describes an obstacle-free domain.
func (o Obstacles) None() bool { return o.WallColumn < 0 && o.Density == 0 }

// OpenDomain is the Obstacles zero-configuration: no wall, no obstacles.
var OpenDomain = Obstacles{WallColumn: -1}

// BroadcastWithObstacles runs a broadcast on a copy of the network's grid
// with the given mobility barriers. The step cap defaults to 400*n when
// WithMaxSteps was not supplied (constricted domains have no closed-form
// envelope).
func (nw *Network) BroadcastWithObstacles(o Obstacles) (BroadcastResult, error) {
	d, err := barrier.NewDomain(nw.g)
	if err != nil {
		return BroadcastResult{}, err
	}
	if o.WallColumn >= 0 {
		if err := d.AddWall(o.WallColumn, o.WallGap); err != nil {
			return BroadcastResult{}, err
		}
	}
	if o.Density != 0 {
		if err := d.AddRandomObstacles(o.Density, rng.New(nw.opt.seed^0x0b57ac1e)); err != nil {
			return BroadcastResult{}, err
		}
	}
	maxSteps := nw.opt.maxSteps
	if maxSteps == 0 {
		maxSteps = 400 * nw.g.N()
	}
	r, err := barrier.RunBroadcast(barrier.Config{
		Domain:             d,
		K:                  nw.k,
		Radius:             nw.opt.radius,
		Seed:               nw.opt.seed,
		MaxSteps:           maxSteps,
		ConnectedPlacement: true,
	})
	if err != nil {
		return BroadcastResult{}, err
	}
	return BroadcastResult{Steps: r.Steps, Completed: r.Completed, CoverageSteps: -1}, nil
}
