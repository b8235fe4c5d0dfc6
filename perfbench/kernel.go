package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"mobilenet/internal/core"
	"mobilenet/internal/grid"
	"mobilenet/internal/prof"
)

// kernel_large sizes: the paper-scale regime (r = 1 below r_c = 8) where
// move, index and label do nearly all the work.
const (
	kernelNodes  = 6_400_000
	kernelAgents = 100_000
	kernelRadius = 1
	// kernelMaxSteps caps the run; a window never gets near it at this
	// size (T_B is of order n/√k ≈ 20000 steps, far beyond one window).
	kernelMaxSteps = 1 << 20
	// kernelBlock is how many steps a traced run gives each of its two
	// engines (untraced, traced) before switching to the other.
	kernelBlock = 16
)

func kernelConfig(seed uint64) (core.Config, error) {
	g, err := grid.FromNodes(kernelNodes)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Grid:     g,
		K:        kernelAgents,
		Radius:   kernelRadius,
		Seed:     derive(seed, streamUnique, 0),
		Source:   core.SourceRandom,
		MaxSteps: kernelMaxSteps,
	}, nil
}

// kernelRun is one engine stepped by the benchmark, with what the
// correctness check needs: the informed count after every step.
type kernelRun struct {
	b      *core.Broadcast
	counts []int
	ops    []opRecord
	start  time.Time
	busy   time.Duration
}

func (k *kernelRun) step(tr *prof.Trace, tid int64) {
	t0 := time.Now()
	k.b.Step()
	now := time.Now()
	d := now.Sub(t0)
	k.busy += d
	k.ops = append(k.ops, opRecord{lat: ms(d), done: now.Sub(k.start)})
	k.counts = append(k.counts, k.b.InformedCount())
	if tr.Len() < maxSpans {
		tr.Add("Step", "core", tid, t0, d, nil)
	}
}

func (k *kernelRun) canStep() bool { return !k.b.Done() && k.b.Time() < kernelMaxSteps }

// endState encodes what the check compares at the end of a window: the
// step count, the informed count and the informed set.
func endState(b *core.Broadcast) []byte {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, int64(b.Time()))
	binary.Write(&buf, binary.LittleEndian, int64(b.InformedCount()))
	set := make([]byte, (kernelAgents+7)/8)
	for i := 0; i < kernelAgents; i++ {
		if b.Informed(i) {
			set[i/8] |= 1 << (i % 8)
		}
	}
	buf.Write(set)
	return buf.Bytes()
}

func runKernel(opt *options, rep *report) error {
	var (
		tr      *prof.Trace
		profile *prof.StepProfile
	)
	if opt.trace {
		tr = prof.NewTrace()
		tr.NameThread(1, "traced engine")
		tr.NameThread(2, "setup")
		profile = &prof.StepProfile{}
	}
	cfg, err := kernelConfig(opt.seed)
	if err != nil {
		return err
	}
	newEngine := func() (*core.Broadcast, error) {
		t0 := time.Now()
		b, err := core.NewBroadcast(cfg)
		tr.Add("NewBroadcast", "core", 2, t0, time.Since(t0), nil)
		return b, err
	}
	setup, b, err := medianSetup(setupReps, newEngine, func(*core.Broadcast) {})
	if err != nil {
		return err
	}
	rep.set("setup_s", "s", setupReps, setup)
	rep.set("core.setup_ms", "ms", setupReps, setup*1000)

	runtime.GC()
	start := time.Now()
	plain := &kernelRun{b: b, start: start}
	var traced *kernelRun
	if opt.trace {
		tcfg := cfg
		tcfg.Profile = profile
		tb, err := core.NewBroadcast(tcfg)
		if err != nil {
			return err
		}
		traced = &kernelRun{b: tb, start: start}
	}
	length := time.Duration(opt.seconds * float64(time.Second))
	stopAt := start.Add(length)
	steal := sampleSteal(start, length)
	for time.Now().Before(stopAt) && plain.canStep() {
		if traced == nil {
			plain.step(nil, 0)
			continue
		}
		// Alternate blocks so both engines see the same states and the
		// same machine conditions; each block ends with both engines at
		// the same step.
		for i := 0; i < kernelBlock && plain.canStep(); i++ {
			plain.step(nil, 0)
		}
		for traced.b.Time() < plain.b.Time() {
			traced.step(tr, 1)
		}
	}
	elapsed := time.Since(start)
	stealShare := steal.wait()
	rep.setPeakRSS()
	steps := len(plain.counts)
	if steps == 0 {
		return fmt.Errorf("kernel_large: no step completed in %gs", opt.seconds)
	}

	runs := []*kernelRun{plain}
	if traced != nil {
		runs = append(runs, traced)
	}
	states := make([][]byte, len(runs))
	for i, r := range runs {
		states[i] = endState(r.b)
		r.b = nil
	}
	b = nil
	runtime.GC()

	// Reference: the same seed under the from-scratch labeller, outside
	// the timed window.
	refCfg := cfg
	refCfg.FullRelabel = true
	ref, err := core.NewBroadcast(refCfg)
	if err != nil {
		return err
	}
	refCounts := make([]int, steps)
	for i := range refCounts {
		ref.Step()
		refCounts[i] = ref.InformedCount()
	}
	want := endState(ref)
	for ri, r := range runs {
		w := &window{ops: r.ops, length: length, elapsed: elapsed, steal: stealShare}
		for i, c := range r.counts {
			if c != refCounts[i] {
				w.fail(uint64(i), fmt.Errorf("step %d: %d informed, reference %d", i+1, c, refCounts[i]))
			}
		}
		if err := check(opt, states[ri], want); err != nil {
			// A differing end state fails the last step.
			w.fail(uint64(steps-1), fmt.Errorf("end state after %d steps: %w", steps, err))
		}
		rep.count(w)
		for _, err := range w.errs {
			rep.note("failed op: %v", err)
		}
		if !opt.trace {
			rep.setLatency(w)
			return nil
		}
	}

	untracedRate := float64(steps) / plain.busy.Seconds()
	tracedRate := float64(steps) / traced.busy.Seconds()
	rep.set("prof.overhead_frac", "ratio", steps, 1-tracedRate/untracedRate)
	rep.note("prof.overhead_frac = 1 - traced/untraced steps per second = 1 - %.4g/%.4g", tracedRate, untracedRate)
	n := profile.Steps()
	phases := []struct {
		name string
		ph   prof.Phase
	}{
		{"agent.move_ms", prof.Move},
		{"visibility.index_ms", prof.Index},
		{"visibility.label_ms", prof.Label},
		{"core.spread_ms", prof.Spread},
		{"obs.observe_ms", prof.Observe},
	}
	var sum float64
	for _, p := range phases {
		v := ms(profile.PhaseTotal(p.ph)) / float64(n)
		sum += v
		rep.set(p.name, "ms", n, v)
	}
	var lat []float64
	for _, o := range traced.ops {
		lat = append(lat, o.lat)
	}
	stepMS := mean(lat)
	rep.set("core.step_ms", "ms", steps, stepMS)
	rep.set("core.unattributed_ms", "ms", steps, stepMS-sum)
	rep.note("core.unattributed_ms = core.step_ms %.4g - sum of five phases %.4g (residual %.1f%% of its base)",
		stepMS, sum, 100*(stepMS-sum)/stepMS)
	return writeTrace(opt, rep, tr)
}
