package prof

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// spin keeps the CPU busy long enough for the monotonic clock to tick, so
// laps accumulate strictly positive durations without sleeping.
func spin() {
	t0 := time.Now()
	for time.Since(t0) < 50*time.Microsecond {
	}
}

func TestNilProfileIsSafe(t *testing.T) {
	var p *StepProfile
	p.Mark()
	p.Lap(Move)
	p.StepDone()
	p.Reset()
	if p.Steps() != 0 || p.Total() != 0 || p.PhaseTotal(Spread) != 0 {
		t.Fatal("nil profile reported nonzero accounting")
	}
	if p.Breakdown() != nil {
		t.Fatal("nil profile produced a breakdown")
	}
}

func TestPhaseNames(t *testing.T) {
	names := PhaseNames()
	want := []string{"move", "index", "label", "spread", "observe"}
	if len(names) != len(want) || len(names) != int(NumPhases) {
		t.Fatalf("PhaseNames() = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("PhaseNames()[%d] = %q, want %q", i, names[i], n)
		}
		if Phase(i).String() != n {
			t.Fatalf("Phase(%d).String() = %q, want %q", i, Phase(i).String(), n)
		}
	}
}

// TestLapsTileTheStep pins the accounting model: consecutive laps from one
// Mark partition the elapsed time, so the per-phase totals sum to the
// profile total and every lapped phase accumulates something positive.
func TestLapsTileTheStep(t *testing.T) {
	p := new(StepProfile)
	for step := 0; step < 3; step++ {
		p.Mark()
		spin()
		p.Lap(Move)
		spin()
		p.Lap(Spread)
		spin()
		p.Lap(Observe)
		p.StepDone()
	}
	if p.Steps() != 3 {
		t.Fatalf("Steps() = %d, want 3", p.Steps())
	}
	for _, ph := range []Phase{Move, Spread, Observe} {
		if p.PhaseTotal(ph) <= 0 {
			t.Errorf("phase %s accumulated nothing", ph)
		}
	}
	for _, ph := range []Phase{Index, Label} {
		if p.PhaseTotal(ph) != 0 {
			t.Errorf("unlapped phase %s accumulated %v", ph, p.PhaseTotal(ph))
		}
	}
	sum := p.PhaseTotal(Move) + p.PhaseTotal(Spread) + p.PhaseTotal(Observe)
	if sum != p.Total() {
		t.Fatalf("phase sum %v != Total() %v", sum, p.Total())
	}

	p.Reset()
	if p.Steps() != 0 || p.Total() != 0 {
		t.Fatal("Reset did not zero the profile")
	}
	if p.Breakdown() != nil {
		t.Fatal("reset profile still produced a breakdown")
	}
}

func TestBreakdownFractions(t *testing.T) {
	p := new(StepProfile)
	p.Mark()
	spin()
	p.Lap(Move)
	spin()
	p.Lap(Label)
	p.StepDone()

	b := p.Breakdown()
	if b == nil {
		t.Fatal("no breakdown from a recorded profile")
	}
	if b.Steps != 1 {
		t.Fatalf("Steps = %d, want 1", b.Steps)
	}
	if len(b.Seconds) != 2 {
		t.Fatalf("Seconds has %d phases, want 2 (zero phases must be omitted): %v", len(b.Seconds), b.Seconds)
	}
	var fsum float64
	for name, f := range b.Fractions {
		if f <= 0 || f >= 1 {
			t.Errorf("fraction %s = %v outside (0,1)", name, f)
		}
		fsum += f
	}
	if math.Abs(fsum-1) > 1e-9 {
		t.Fatalf("fractions sum to %v, want 1", fsum)
	}
	if math.Abs(b.TotalSeconds()-p.Total().Seconds()) > 1e-12 {
		t.Fatalf("TotalSeconds %v != profile total %v", b.TotalSeconds(), p.Total().Seconds())
	}
}

func TestMergeBreakdowns(t *testing.T) {
	if MergeBreakdowns() != nil || MergeBreakdowns(nil, nil) != nil {
		t.Fatal("merging nothing must stay nil so unprofiled results keep absent fields")
	}
	a := &Breakdown{Steps: 2, Seconds: map[string]float64{"move": 1, "label": 3}}
	b := &Breakdown{Steps: 3, Seconds: map[string]float64{"move": 2, "spread": 2}}
	m := MergeBreakdowns(a, nil, b)
	if m == nil {
		t.Fatal("merge of real breakdowns returned nil")
	}
	if m.Steps != 5 {
		t.Fatalf("merged Steps = %d, want 5", m.Steps)
	}
	wantSec := map[string]float64{"move": 3, "label": 3, "spread": 2}
	for name, want := range wantSec {
		if got := m.Seconds[name]; math.Abs(got-want) > 1e-12 {
			t.Errorf("merged Seconds[%s] = %v, want %v", name, got, want)
		}
	}
	if got := m.Fractions["move"]; math.Abs(got-3.0/8.0) > 1e-12 {
		t.Errorf("merged Fractions[move] = %v, want %v", got, 3.0/8.0)
	}
}

// maxAliasDev bounds how far any residue class's sampled share may stray
// from the overall sampling rate, relative to it. The golden-ratio rule's
// worst class over periods 2..64 and 2^16 steps is 28% off (period 61);
// a stride rule s%P puts every sample in one class, P-1 times over.
const maxAliasDev = 1.0 / 3

// aliasing checks a sampling rule over the first 2^16 steps: for every
// period P in 2..64, each residue class mod P must hold its share of the
// sampled steps within maxAliasDev. It returns the first class that does
// not, or "" when none strays.
func aliasing(rule func(uint64) bool) string {
	const steps = 1 << 16
	var total int
	for s := uint64(0); s < steps; s++ {
		if rule(s) {
			total++
		}
	}
	rate := float64(total) / steps
	for p := uint64(2); p <= 64; p++ {
		for r := uint64(0); r < p; r++ {
			var size, hit int
			for s := r; s < steps; s += p {
				size++
				if rule(s) {
					hit++
				}
			}
			want := rate * float64(size)
			if math.Abs(float64(hit)-want) > maxAliasDev*want {
				return fmt.Sprintf("class %d mod %d holds %d sampled steps, want %.1f", r, p, hit, want)
			}
		}
	}
	return ""
}

// TestSamplingDoesNotAlias pins the sampling rule without reading a clock:
// step 0 is always sampled, about one step in sixteen is, and no periodic
// engine cadence (the incremental labeller's rescans, an observer's every:N)
// can line up with the sample. The checker itself must reject the stride
// rules it exists to forbid.
func TestSamplingDoesNotAlias(t *testing.T) {
	if !sampled(0) {
		t.Fatal("step 0 is not sampled")
	}
	var n int
	for s := uint64(0); s < 1<<16; s++ {
		if sampled(s) {
			n++
		}
	}
	if rate := float64(n) / (1 << 16); rate < 1.0/20 || rate > 1.0/12 {
		t.Errorf("sampling rate %.4f, want about 1/16", rate)
	}
	if msg := aliasing(sampled); msg != "" {
		t.Errorf("sampling rule aliases: %s", msg)
	}
	for _, stride := range []uint64{8, 16} {
		if aliasing(func(s uint64) bool { return s%stride == 0 }) == "" {
			t.Errorf("checker accepts the stride rule s%%%d==0", stride)
		}
	}
}

// TestUnsampledStepsCountInTheTotal pins the estimator: an unsampled step's
// laps are not timed, but its time still enters the total, which the
// sampled laps then apportion.
func TestUnsampledStepsCountInTheTotal(t *testing.T) {
	if sampled(1) {
		t.Fatal("test assumes step 1 is unsampled")
	}
	p := new(StepProfile)
	p.Mark()
	spin()
	p.Lap(Move)
	p.StepDone()
	p.Mark()
	spin()
	p.Lap(Index)
	p.StepDone()
	if p.Steps() != 2 {
		t.Fatalf("Steps() = %d, want 2", p.Steps())
	}
	if d := p.PhaseTotal(Index); d != 0 {
		t.Fatalf("unsampled step charged %v to index", d)
	}
	if p.PhaseTotal(Move) != p.Total() {
		t.Fatalf("move %v != Total() %v: the only sampled phase must own the total", p.PhaseTotal(Move), p.Total())
	}
	if p.Total() < 100*time.Microsecond {
		t.Fatalf("Total() %v does not cover both 50µs steps", p.Total())
	}
}

// TestLongStepsExcludeGaps pins the bracketing of long steps: work a caller
// runs between two steps (another engine, a trace write) is not charged to
// any phase, sampled step or not.
func TestLongStepsExcludeGaps(t *testing.T) {
	const gap = 500 * time.Microsecond
	p := new(StepProfile)
	t0 := time.Now()
	for step := 0; step < 4; step++ {
		p.Mark()
		spin()
		p.Lap(Move)
		p.StepDone()
		g0 := time.Now()
		for time.Since(g0) < gap {
		}
	}
	elapsed := time.Since(t0)
	if p.Total() < 4*50*time.Microsecond {
		t.Fatalf("Total() %v does not cover four 50µs steps", p.Total())
	}
	if limit := elapsed - 4*gap + gap/2; p.Total() > limit {
		t.Fatalf("Total() %v charges the gaps between steps (elapsed %v, gaps %v)", p.Total(), elapsed, 4*gap)
	}
}

// TestShortStepsTileTheLoop pins the cheap path: once steps prove short,
// the total tiles the loop from the first Mark, counting every step but up
// to spanEvery-1 trailing ones, and never exceeds the loop's wall clock.
func TestShortStepsTileTheLoop(t *testing.T) {
	const steps = 1000
	p := new(StepProfile)
	t0 := time.Now()
	for step := 0; step < steps; step++ {
		p.Mark()
		p.Lap(Move)
		p.Lap(Spread)
		p.StepDone()
	}
	elapsed := time.Since(t0)
	if !p.short {
		t.Fatal("empty steps did not switch the profile to short steps")
	}
	if p.Steps() != steps {
		t.Fatalf("Steps() = %d, want %d", p.Steps(), steps)
	}
	if p.Total() <= 0 || p.Total() > elapsed {
		t.Fatalf("Total() %v outside (0, %v]", p.Total(), elapsed)
	}
	if p.PhaseTotal(Move) <= 0 || p.PhaseTotal(Spread) <= 0 {
		t.Fatalf("sampled phases were not apportioned: move %v spread %v", p.PhaseTotal(Move), p.PhaseTotal(Spread))
	}
}
