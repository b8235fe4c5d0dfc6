// Package meeting estimates the two probabilistic primitives at the heart
// of the paper's upper-bound proof:
//
//   - Lemma 1 (hitting): a walk started at v0 visits a node v at distance d
//     within d^2 steps with probability at least c1/max{1, log d}.
//   - Lemma 3 (meeting): two independent walks started at distance d meet,
//     within d^2 steps, at a node of the lens D (the set of nodes within
//     distance d of both starting points), with probability at least
//     c3/max{1, log d}.
//
// Experiments E6 and E7 sweep d and verify that the measured probability
// times log d stays bounded below by a positive constant.
package meeting

import (
	"fmt"

	"mobilenet/internal/cancel"
	"mobilenet/internal/grid"
	"mobilenet/internal/obs"
	"mobilenet/internal/prof"
	"mobilenet/internal/rng"
	"mobilenet/internal/walk"
)

// Trial describes one meeting/hitting estimation setting.
type Trial struct {
	// Distance is the initial separation d >= 1 between the walks (or
	// between walker and target).
	Distance int
	// Trials is the number of independent Monte-Carlo repetitions.
	Trials int
	// Seed drives all randomness.
	Seed uint64
	// Horizon overrides the number of steps (default d^2 per the lemmas).
	Horizon int
}

func (t *Trial) validate() error {
	if t.Distance < 1 {
		return fmt.Errorf("meeting: distance must be >= 1, got %d", t.Distance)
	}
	if t.Trials < 1 {
		return fmt.Errorf("meeting: trials must be >= 1, got %d", t.Trials)
	}
	if t.Horizon < 0 {
		return fmt.Errorf("meeting: negative horizon %d", t.Horizon)
	}
	return nil
}

func (t *Trial) horizon() int {
	if t.Horizon > 0 {
		return t.Horizon
	}
	return t.Distance * t.Distance
}

// MaxDistance is the largest separation d whose ArenaSide fits a grid.
const MaxDistance = grid.MaxSide / 6

// ArenaSide returns the side of the arena a distance-d trial runs on: 6d,
// floored at 8, so boundary reflection does not dominate at scale d. The
// scenario layer uses it to canonicalise the realised grid of a "meeting"
// spec without duplicating the geometry.
func ArenaSide(d int) int {
	side := 6 * d
	if side < 8 {
		side = 8
	}
	return side
}

// arena builds the ArenaSide grid with the two start nodes centred and
// horizontally separated by d.
func arena(d int) (*grid.Grid, grid.Point, grid.Point) {
	g := grid.MustNew(ArenaSide(d))
	c := g.Center()
	a := grid.Point{X: c.X - int32(d)/2, Y: c.Y}
	b := grid.Point{X: a.X + int32(d), Y: c.Y}
	return g, a, b
}

// TrialRun executes a single Lemma 3 meeting trial: two synchronized walks
// start at separation d and run for up to horizon steps (d^2 when horizon
// is 0). It returns the meeting time and true when the walks met at a node
// of the lens D within the horizon, else (horizon, false). One trial is the
// unit of work the scenario layer's "meeting" engine schedules per
// replicate, so a whole probability estimate is just a multi-rep spec.
func TrialRun(d int, seed uint64, horizon int) (steps int, met bool, err error) {
	return TrialRunObserved(d, seed, horizon, nil)
}

// TrialRunObserved is TrialRun with a per-step observer: when rec is
// non-nil, the 0/1 "has met in the lens by step t" indicator is recorded at
// the recorder's cadence (t=0 included), plus once at the meeting step
// itself so the series always ends with the realised outcome. A nil rec
// reproduces TrialRun exactly — there is one implementation of the trial
// physics.
func TrialRunObserved(d int, seed uint64, horizon int, rec *obs.Recorder) (steps int, met bool, err error) {
	return TrialRunProfiled(d, seed, horizon, rec, nil)
}

// TrialRunProfiled is TrialRunObserved with a step-phase profiler: when p
// is non-nil the two walk advances are charged to the move phase, the
// lens/meeting check to spread, and the recorder work to observe. A nil p
// costs one branch per phase, so TrialRun and TrialRunObserved delegate
// here — there is still exactly one implementation of the trial physics.
func TrialRunProfiled(d int, seed uint64, horizon int, rec *obs.Recorder, p *prof.StepProfile) (steps int, met bool, err error) {
	return TrialRunCancellable(d, seed, horizon, rec, p, nil)
}

// TrialRunCancellable is TrialRunProfiled with an amortized cancellation
// check: when stop is non-nil and reports stopped, the trial halts at the
// next step boundary and returns the step it stopped at with met false —
// the caller distinguishes "aborted" from "never met" via stop.Stopped().
// A nil stop costs a constant-false branch, so the profiled variants
// delegate here — there is still exactly one implementation of the trial
// physics.
func TrialRunCancellable(d int, seed uint64, horizon int, rec *obs.Recorder, p *prof.StepProfile, stop *cancel.Check) (steps int, met bool, err error) {
	if d < 1 {
		return 0, false, fmt.Errorf("meeting: distance must be >= 1, got %d", d)
	}
	if horizon < 0 {
		return 0, false, fmt.Errorf("meeting: negative horizon %d", horizon)
	}
	if horizon == 0 {
		horizon = d * d
	}
	g, a0Start, b0Start := arena(d)
	a0, b0 := a0Start, b0Start
	// The two walkers advance through the batched stepper so the step
	// reports which of them actually moved: a step where neither moved
	// cannot change the meeting predicate (had they met, the trial would
	// already have returned), so the lens check is skipped. The stream is
	// bit-identical to the scalar two-call form (see walk.StepAllMoved).
	pair := [2]grid.Point{a0Start, b0Start}
	var ubuf [2]uint64
	var movedBuf [2]int32
	src := rng.New(seed)
	p.Mark()
	if rec != nil && rec.Wants(0) {
		rec.Record(0, obs.Sample{Met: false})
	}
	p.Lap(prof.Observe)
	for t := 1; t <= horizon; t++ {
		if stop.Stop() {
			return t - 1, false, nil
		}
		p.Mark()
		moved := walk.StepAllMoved(g, pair[:], ubuf[:], src, movedBuf[:0])
		a, b := pair[0], pair[1]
		p.Lap(prof.Move)
		if len(moved) > 0 && a == b && inLens(a, a0, b0, d) {
			p.Lap(prof.Spread)
			if rec != nil {
				// The meeting step is always recorded, cadence or not: a
				// series whose last sample still reads 0 would misreport
				// the trial.
				rec.Record(t, obs.Sample{Met: true})
			}
			p.Lap(prof.Observe)
			p.StepDone()
			return t, true, nil
		}
		p.Lap(prof.Spread)
		if rec != nil && rec.Wants(t) {
			rec.Record(t, obs.Sample{Met: false})
		}
		p.Lap(prof.Observe)
		p.StepDone()
	}
	return horizon, false, nil
}

// MeetingProbability estimates P(∃ t <= T: a_t = b_t ∈ D) of Lemma 3 for
// two walks with initial separation d and T = d^2 (or the configured
// horizon). It returns the fraction of trials in which the walks met at a
// node of the lens D within the horizon. Each trial is one TrialRun —
// the same unit the scenario layer's "meeting" engine schedules — under
// a seed drawn from the trial's master stream, so there is exactly one
// implementation of the trial physics.
func MeetingProbability(tr Trial) (float64, error) {
	if err := tr.validate(); err != nil {
		return 0, err
	}
	master := rng.New(tr.Seed)
	hits := 0
	for i := 0; i < tr.Trials; i++ {
		_, met, err := TrialRun(tr.Distance, master.Uint64(), tr.horizon())
		if err != nil {
			return 0, err
		}
		if met {
			hits++
		}
	}
	return float64(hits) / float64(tr.Trials), nil
}

// inLens reports whether p lies in D: within distance d of both starts.
func inLens(p, a0, b0 grid.Point, d int) bool {
	return grid.ManhattanPoints(p, a0) <= d && grid.ManhattanPoints(p, b0) <= d
}

// HittingProbability estimates Lemma 1's quantity: the probability that a
// walk started at v0 visits a fixed target node at distance d within d^2
// steps (or the configured horizon).
func HittingProbability(tr Trial) (float64, error) {
	if err := tr.validate(); err != nil {
		return 0, err
	}
	d := tr.Distance
	g, v0, target := arena(d)
	horizon := tr.horizon()
	master := rng.New(tr.Seed)
	hits := 0
	for i := 0; i < tr.Trials; i++ {
		src := master.Split()
		p := v0
		for t := 1; t <= horizon; t++ {
			p = walk.Step(g, p, src)
			if p == target {
				hits++
				break
			}
		}
	}
	return float64(hits) / float64(tr.Trials), nil
}

// MeetingTime runs two synchronized walks from separation d until they
// share a node anywhere on the grid (not restricted to the lens) and
// returns the meeting time, capped at maxSteps (returns maxSteps and false
// if they never met).
func MeetingTime(d int, seed uint64, maxSteps int) (int, bool, error) {
	if d < 1 {
		return 0, false, fmt.Errorf("meeting: distance must be >= 1, got %d", d)
	}
	if maxSteps < 1 {
		return 0, false, fmt.Errorf("meeting: maxSteps must be >= 1, got %d", maxSteps)
	}
	g, a, b := arena(d)
	src := rng.New(seed)
	for t := 1; t <= maxSteps; t++ {
		a = walk.Step(g, a, src)
		b = walk.Step(g, b, src)
		if a == b {
			return t, true, nil
		}
	}
	return maxSteps, false, nil
}
