// Package prof provides the step-phase profiler and span tracer behind the
// repository's observability surface. It answers "where does a step's time
// actually go?" with a fixed phase vocabulary — move, index, label, spread,
// observe — accumulated per replicate by a StepProfile, and "where did this
// request's time go?" with a Trace of spans exportable as Chrome trace-event
// JSON (loadable in Perfetto or chrome://tracing).
//
// The profiler is zero-overhead when disabled: every method is safe on a nil
// receiver and returns immediately, so an engine instrumented with
//
//	p.Mark()
//	pop.Step()
//	p.Lap(prof.Move)
//
// compiles to a branch-and-skip when no profile is attached. An enabled
// StepProfile is cheap enough to leave on: it times every step's total, but
// splits it into phases from a deterministic sample of about one step in
// sixteen. On a sampled step each Mark and Lap is one monotonic clock read;
// on any other step Lap is a branch, and so is Mark once steps prove short
// enough (a few microseconds) that a clock read would cost a visible share
// of them. Accumulation is into fixed-size arrays — no maps, no allocation —
// so the engines' zero-alloc steady-state invariants hold with profiling on
// as well as off.
package prof

import (
	"math/bits"
	"time"
)

// Phase identifies one slice of an engine step in the fixed vocabulary
// shared by every engine. Not every engine exercises every phase (pure
// coverage runs never index or label), but no engine invents phases outside
// this set, which is what keeps the telemetry label space bounded.
type Phase uint8

// The phase vocabulary, in canonical order.
const (
	// Move is motion-model stepping: advancing agent positions one tick.
	Move Phase = iota
	// Index is spatial-index construction: the CSR bucket build (counting
	// sort) that precedes component labelling.
	Index
	// Label is connectivity resolution: union-find over candidate pairs
	// plus the dense deterministic label pass.
	Label
	// Spread is information propagation: flooding rumors or marks through
	// the labelled components (or captures, visits, meetings — whatever
	// the engine disseminates).
	Spread
	// Observe is measurement: per-step observable extraction, curve and
	// series recording.
	Observe
	// NumPhases is the size of the vocabulary; valid phases are < NumPhases.
	NumPhases
)

// phaseNames is indexed by Phase; the strings are the wire vocabulary used
// in JSON breakdowns and telemetry labels.
var phaseNames = [NumPhases]string{"move", "index", "label", "spread", "observe"}

// String returns the phase's wire name ("move", "index", ...).
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "invalid"
}

// PhaseNames returns the full phase vocabulary in canonical order. The
// returned slice is freshly allocated.
func PhaseNames() []string {
	out := make([]string, NumPhases)
	copy(out, phaseNames[:])
	return out
}

// StepProfile accumulates per-phase wall-clock time across the steps of one
// replicate. The accumulators are fixed-size, so steady-state use allocates
// nothing; all methods are no-ops on a nil receiver, so engines thread a
// possibly-nil *StepProfile unconditionally.
//
// Usage inside a step loop: call Mark once at the top of the step, Lap after
// each phase completes, and StepDone at the end. Phases are timed only on
// sampled steps (see sampled): there Mark and each Lap read the clock once,
// so consecutive laps tile the step. On an unsampled step Lap does nothing.
//
// The total is timed on every step, and the sampled laps split it. How the
// total is timed depends on the step length, measured as the profile runs:
//
//   - Long steps (shortStep or more) are bracketed: Mark and StepDone both
//     read the clock, and whatever runs between steps stays out of the total.
//   - Short steps are tiled: an unsampled step's Mark does nothing, and the
//     total runs from one clock read to the next, so it covers the loop's
//     glue between steps as well. StepDone reads the clock only on every
//     spanEvery-th step, so up to spanEvery-1 trailing steps go uncounted.
//
// PhaseTotal apportions the total by the phase's share of the sampled laps,
// and Total is the sum of the PhaseTotals, so phases always add up to the
// total exactly. A StepProfile is not safe for concurrent use; each
// replicate owns its own.
type StepProfile struct {
	laps   [NumPhases]time.Duration // lap sums over sampled steps only
	span   time.Duration            // timed total over all steps
	steps  int
	skip   bool          // the current step is unsampled: Lap does nothing
	short  bool          // steps are short: an unsampled step's Mark does nothing
	anchor time.Time     // first clock read; offsets below count from it
	at     time.Duration // offset of the latest clock read
	stepAt time.Duration // offset of the latest step-boundary read
	stepN  int           // steps counted at that read
}

// sampleMul is 2^64 divided by the golden ratio, rounded to odd. Multiplying
// a step index by it and keeping the top sampleBits bits walks the unit
// interval in the low-discrepancy Weyl sequence s/φ mod 1, which has no
// period: every residue class mod any small P gets its share of samples.
// A stride rule (s mod 2^j) would not: it aliases with engine work that
// recurs every few steps, such as the incremental labeller's rescans.
const (
	sampleMul  = 0x9E3779B97F4A7C15
	sampleBits = 4
)

// shortStep is the step length below which a clock read costs a visible
// share of the step (a read is ~40 ns), so unsampled steps stop bracketing.
// spanEvery is how often, in steps, StepDone reads the clock on short
// unsampled steps, bounding the uncounted tail of a run.
const (
	shortStep = 16 * time.Microsecond
	spanEvery = 8
)

// sampled reports whether a profile times the phases of step s (0-based):
// about one step in 2^sampleBits, always including step 0 and the time-0
// region before it.
func sampled(s uint64) bool { return s*sampleMul>>(64-sampleBits) == 0 }

// Mark records the current instant as the start of the next phase. Call it
// at the top of each step (and after any work that should not be charged to
// a phase). No-op on a nil receiver or a short unsampled step.
func (p *StepProfile) Mark() {
	if p == nil || p.skip && p.short {
		return
	}
	p.mark()
}

// Lap charges the time elapsed since the last Mark or Lap to the given
// phase and re-marks, using one clock read. No-op on a nil receiver or an
// unsampled step.
func (p *StepProfile) Lap(ph Phase) {
	if p == nil || p.skip {
		return
	}
	p.lap(ph)
}

// StepDone counts one completed step and decides whether the next step is
// sampled. No-op on a nil receiver.
func (p *StepProfile) StepDone() {
	if p == nil {
		return
	}
	p.stepDone()
}

// now returns the offset of the current instant from the anchor, taking the
// anchor on the first call. Offsets use time.Since, which reads only the
// monotonic clock, where time.Now reads the wall clock as well.
func (p *StepProfile) now() time.Duration {
	if p.anchor.IsZero() {
		p.anchor = time.Now()
		return 0
	}
	return time.Since(p.anchor)
}

// mark and lap are the clock-reading bodies of Mark and Lap. They stay out
// of line so that Mark and Lap themselves, a branch and a call, inline into
// the engines' step loops.
//
//go:noinline
func (p *StepProfile) mark() {
	t := p.now()
	if p.short {
		// Short steps run back to back: the time since the last read is
		// the previous steps' work, tiled into the total.
		p.span += t - p.at
	} else {
		// A long step is bracketed: what ran since the last read happened
		// between steps and stays out of the total.
		p.stepAt, p.stepN = t, p.steps
	}
	p.at = t
}

//go:noinline
func (p *StepProfile) lap(ph Phase) {
	t := p.now()
	d := t - p.at
	p.laps[ph] += d
	p.span += d
	p.at = t
}

// stepDone is the body of StepDone. Unless the step was short and unsampled
// and is not a spanEvery-th step, it reads the clock, extends the total to
// that read, and re-measures the step length over the steps since the last
// step-boundary read.
func (p *StepProfile) stepDone() {
	p.steps++
	if !(p.skip && p.short) || p.steps%spanEvery == 0 {
		t := p.now()
		p.span += t - p.at
		p.at = t
		p.short = t-p.stepAt < shortStep*time.Duration(p.steps-p.stepN)
		p.stepAt, p.stepN = t, p.steps
	}
	p.skip = !sampled(uint64(p.steps))
}

// Reset clears all accumulated totals and the step count for reuse across
// replicates. No-op on a nil receiver.
func (p *StepProfile) Reset() {
	if p == nil {
		return
	}
	*p = StepProfile{}
}

// Steps returns the number of completed steps counted so far, sampled or
// not (0 on nil).
func (p *StepProfile) Steps() int {
	if p == nil {
		return 0
	}
	return p.steps
}

// PhaseTotal returns one phase's estimated share of the timed total: the
// total times the phase's fraction of the sampled laps (0 on nil).
func (p *StepProfile) PhaseTotal(ph Phase) time.Duration {
	if p == nil || ph >= NumPhases {
		return 0
	}
	var sum time.Duration
	for _, d := range p.laps {
		sum += d
	}
	if sum <= 0 {
		return 0
	}
	// span*laps/sum in 128 bits; laps <= sum keeps the quotient in range.
	hi, lo := bits.Mul64(uint64(p.span), uint64(p.laps[ph]))
	q, _ := bits.Div64(hi, lo, uint64(sum))
	return time.Duration(q)
}

// Total returns the sum of all phase totals: the timed total, less at most a
// nanosecond per phase of rounding (0 on nil).
func (p *StepProfile) Total() time.Duration {
	var t time.Duration
	for ph := Phase(0); ph < NumPhases; ph++ {
		t += p.PhaseTotal(ph)
	}
	return t
}

// Breakdown freezes the profile into its JSON-facing form. Phases with zero
// accumulated time are omitted (an engine that never indexes reports no
// index entry). Returns nil on a nil receiver or when nothing was recorded,
// so unprofiled runs marshal with no phases field at all.
func (p *StepProfile) Breakdown() *Breakdown {
	if p == nil {
		return nil
	}
	total := p.Total()
	if total <= 0 && p.steps == 0 {
		return nil
	}
	b := &Breakdown{
		Steps:     p.steps,
		Seconds:   make(map[string]float64, int(NumPhases)),
		Fractions: make(map[string]float64, int(NumPhases)),
	}
	for ph := Phase(0); ph < NumPhases; ph++ {
		d := p.PhaseTotal(ph)
		if d <= 0 {
			continue
		}
		b.Seconds[phaseNames[ph]] = d.Seconds()
		if total > 0 {
			b.Fractions[phaseNames[ph]] = float64(d) / float64(total)
		}
	}
	return b
}

// Breakdown is the aggregated, serialisable view of one or more step
// profiles: per-phase wall-clock seconds and the fraction each phase
// contributes to the profiled total. Maps marshal with sorted keys, so the
// JSON form is deterministic for fixed values.
type Breakdown struct {
	// Steps is the number of profiled steps the breakdown covers.
	Steps int `json:"steps"`
	// Seconds maps phase name to accumulated wall-clock seconds. Only
	// phases with nonzero time appear.
	Seconds map[string]float64 `json:"seconds"`
	// Fractions maps phase name to its share of the profiled total, in
	// (0, 1]. Shares sum to 1 up to rounding.
	Fractions map[string]float64 `json:"fractions,omitempty"`
}

// TotalSeconds returns the sum of all per-phase seconds (0 on nil).
func (b *Breakdown) TotalSeconds() float64 {
	if b == nil {
		return 0
	}
	var t float64
	for _, s := range b.Seconds {
		t += s
	}
	return t
}

// MergeBreakdowns sums a set of breakdowns (nils skipped) into one,
// recomputing fractions over the merged total. Returns nil when every input
// is nil — so aggregating unprofiled replicates yields an absent field, not
// an empty object.
func MergeBreakdowns(bs ...*Breakdown) *Breakdown {
	var out *Breakdown
	for _, b := range bs {
		if b == nil {
			continue
		}
		if out == nil {
			out = &Breakdown{Seconds: make(map[string]float64, len(b.Seconds))}
		}
		out.Steps += b.Steps
		for name, s := range b.Seconds {
			out.Seconds[name] += s
		}
	}
	if out == nil {
		return nil
	}
	total := out.TotalSeconds()
	if total > 0 {
		out.Fractions = make(map[string]float64, len(out.Seconds))
		for name, s := range out.Seconds {
			out.Fractions[name] = s / total
		}
	}
	return out
}
