package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// splitmix64 is the seed mixer behind every generated input.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// derive returns the i-th value of a stream: stream names the use (unique
// seeds, pool draws, ...) and i the op index, so an input depends only on
// the workload seed and its position, never on which client sent it.
func derive(seed, stream, i uint64) uint64 {
	return splitmix64(splitmix64(splitmix64(seed)^stream) ^ i)
}

// unit maps a derived value to [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Streams for derive.
const (
	streamUnique uint64 = iota + 1
	streamDraw
	streamPick
	streamPool
	streamProbe
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opRecord is one op of a measured window.
type opRecord struct {
	lat    float64       // latency, ms
	done   time.Duration // completion, from the window's start
	failed bool
}

// window is the outcome of one measurement: op i's record at index
// i - first, the window's length, and the wall time from its start to the
// last completion.
type window struct {
	first           uint64
	ops             []opRecord
	errs            []error // the first few failures, for diagnostics
	length, elapsed time.Duration
	steal           []float64 // per slice, the host's steal share
}

// sliceLength is the length of the equal slices a measured window is cut
// into, and keptShare the share of them the end-to-end figures come from.
//
// The benchmark runs on a few virtual CPUs of a shared host, whose other
// tenants slow it in two ways. The hypervisor runs other guests on its
// CPUs (steal time, counted in /proc/stat): each slice's figures are
// taken on the time the host ran this machine, not on the wall clock. The
// tenants also contend for caches and memory, which the host does not
// report and which only ever slows a slice down: the figures come from the
// keptShare of the slices that completed the most correct ops per second
// of that time. A neighbour busy for part of a window moves which slices
// are kept rather than the figures.
const (
	sliceLength = 500 * time.Millisecond
	keptShare   = 0.25
)

// slicing returns how many slices a window of the given length is cut
// into, and their length.
func slicing(length time.Duration) (int, time.Duration) {
	slices := int(math.Max(1, math.Round(float64(length)/float64(sliceLength))))
	return slices, length / time.Duration(slices)
}

// stealSampler records, for each slice of a measured window, the steal
// share: of the time this machine's CPUs were busy or waiting to run, the
// share the hypervisor gave to other guests instead. A slice reads 0 where
// the host does not report steal time.
type stealSampler struct {
	share []float64
	done  chan struct{}
}

// sampleSteal starts sampling at the slice boundaries of a window that
// began at start; the sampler stops by itself at the window's end.
func sampleSteal(start time.Time, length time.Duration) *stealSampler {
	slices, span := slicing(length)
	s := &stealSampler{share: make([]float64, slices), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		prev, ok := readCPUTimes()
		for k := range s.share {
			time.Sleep(time.Until(start.Add(span * time.Duration(k+1))))
			cur, curOK := readCPUTimes()
			// A slice stolen whole has no time to measure on; it keeps 0.
			if wanted, steal := cur.wanted-prev.wanted, cur.steal-prev.steal; ok && curOK && steal < wanted {
				s.share[k] = steal / wanted
			}
			prev, ok = cur, curOK
		}
	}()
	return s
}

// wait returns the steal share of every slice once the window has ended.
func (s *stealSampler) wait() []float64 {
	<-s.done
	return s.share
}

// cpuTimes is the machine's cumulative CPU time in clock ticks: the time
// its CPUs were busy or waiting to run (steal included), and the steal.
type cpuTimes struct{ wanted, steal float64 }

// readCPUTimes reads the first line of /proc/stat:
//
//	cpu user nice system idle iowait irq softirq steal [guest guest_nice]
//
// Guest time is already counted in user and nice.
func readCPUTimes() (cpuTimes, bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, false
	}
	var t cpuTimes
	for i, x := range f[1:9] {
		v, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return cpuTimes{}, false
		}
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			t.steal = v
			t.wanted += v
		default:
			t.wanted += v
		}
	}
	return t, true
}

// failedLatencyMS stands in for a failed op's latency: the request budget,
// which no successful op can exceed.
const failedLatencyMS = float64(requestBudget / time.Millisecond)

// closedLoop runs op from n clients until seconds have passed: each client
// sends its next op only after the previous one returned. Op indices are
// handed out in order from first, so a window covers a contiguous run of
// the generated input sequence.
func closedLoop(n int, seconds float64, first uint64, op func(client int, i uint64) error) *window {
	var (
		next   atomic.Uint64
		mu     sync.Mutex
		wg     sync.WaitGroup
		length = time.Duration(seconds * float64(time.Second))
		w      = &window{first: first, length: length}
		start  = time.Now()
		stopAt = start.Add(length)
		steal  = sampleSteal(start, length)
	)
	next.Store(first)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(stopAt) {
				i := next.Add(1) - 1
				t0 := time.Now()
				err := op(c, i)
				now := time.Now()
				rec := opRecord{lat: ms(now.Sub(t0)), done: now.Sub(start), failed: err != nil}
				mu.Lock()
				for uint64(len(w.ops)) <= i-first {
					w.ops = append(w.ops, opRecord{})
				}
				w.ops[i-first] = rec
				if err != nil && len(w.errs) < 5 {
					w.errs = append(w.errs, err)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	w.steal = steal.wait()
	return w
}

// fail marks op i failed after the fact (its output failed the check).
func (w *window) fail(i uint64, err error) {
	w.ops[i-w.first].failed = true
	if len(w.errs) < 5 {
		w.errs = append(w.errs, err)
	}
}

func (w *window) failed() int {
	n := 0
	for _, o := range w.ops {
		if o.failed {
			n++
		}
	}
	return n
}

// opsPerS counts completed, correct ops per second of the window.
func (w *window) opsPerS() float64 {
	return float64(len(w.ops)-w.failed()) / w.elapsed.Seconds()
}

// okMeanMS is the mean latency of the ops that succeeded.
func (w *window) okMeanMS() float64 {
	var xs []float64
	for _, o := range w.ops {
		if !o.failed {
			xs = append(xs, o.lat)
		}
	}
	return mean(xs)
}

// count adds a window's ops to the report's attempted and failed totals.
func (r *report) count(w *window) {
	r.attempted += len(w.ops)
	r.failed += w.failed()
}

// setLatency records the end-to-end figures of a window on the report. It
// cuts the window into slices and scales each slice, and the latency of
// each op completed in it, by the share of the slice the host ran this
// machine (1 minus the slice's steal share). It keeps the keptShare of the
// slices that completed the most correct ops per second of that time
// (earlier slices first on ties) and reports, over the ops completed in
// them, the correct ops completed per second and the 50th and 90th latency
// percentiles, a failed op reading as slower than any limit. Ops
// completing after the window's end count only as attempted.
func (r *report) setLatency(w *window) {
	slices, span := slicing(w.length)
	type slice struct {
		ok   int
		ran  float64 // seconds the host ran this machine
		lat  []float64
		rate float64
	}
	ss := make([]slice, slices)
	var steal float64
	for k := range ss {
		if k < len(w.steal) {
			steal += w.steal[k] / float64(slices)
			ss[k].ran = span.Seconds() * (1 - w.steal[k])
		} else {
			ss[k].ran = span.Seconds()
		}
	}
	for _, o := range w.ops {
		k := int(o.done / span)
		if k >= slices {
			continue
		}
		if o.failed {
			ss[k].lat = append(ss[k].lat, failedLatencyMS)
			continue
		}
		ss[k].lat = append(ss[k].lat, o.lat*ss[k].ran/span.Seconds())
		ss[k].ok++
	}
	for k := range ss {
		ss[k].rate = float64(ss[k].ok) / ss[k].ran
	}
	sort.SliceStable(ss, func(a, b int) bool { return ss[a].rate > ss[b].rate })
	keep := int(math.Max(1, math.Round(keptShare*float64(slices))))
	var (
		lat []float64
		ok  int
		ran float64
	)
	for _, s := range ss[:keep] {
		lat = append(lat, s.lat...)
		ok += s.ok
		ran += s.ran
	}
	n := len(lat)
	r.set("ops_per_s", "1/s", n, float64(ok)/ran)
	r.set("p50_ms", "ms", n, quantile(lat, 0.5))
	r.set("p90_ms", "ms", n, quantile(lat, 0.9))
	r.note("ops_per_s, p50_ms and p90_ms read the %d fastest of %d slices of %v (%d of %d ops), on the %.2f s of them the host ran this machine (steal %.1f%% of the window)",
		keep, slices, span, n, len(w.ops), ran, 100*steal)
}

// setupReps is how many times each workload sets up to report a median
// setup_s.
const setupReps = 31

// medianSetup runs setup reps times and returns the median duration in
// seconds together with the last setup's result, which the caller keeps;
// release is called on every earlier result, and the heap is collected
// before each timed setup so one setup's garbage is not charged to the
// next.
func medianSetup[T any](reps int, setup func() (T, error), release func(T)) (float64, T, error) {
	var (
		last, zero T
		ds         []float64
	)
	for i := 0; i < reps; i++ {
		if i > 0 {
			release(last)
			last = zero
		}
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return 0, zero, err
		}
		ds = append(ds, time.Since(t0).Seconds())
		last = v
	}
	return median(ds), last, nil
}

// loadRun is a closed-loop workload's windows, in the order they ran.
type loadRun struct {
	all    []*window // every window, warm-up included; all are checked
	plain  []*window // the measured untraced windows
	traced *window   // the traced window (traced runs only)
	next   uint64    // the first op index no window used
}

// runLoad runs op after an unmeasured warm-up, so caches fill and lazy
// set-up finishes before timing. Untraced, it then measures one window of
// opt.seconds. Traced, it measures an untraced quarter, a traced half and
// an untraced quarter, so the traced window's throughput is compared with
// untraced windows on both sides of it; arm(true) runs just before the
// traced window and arm(false) just after it.
func runLoad(opt *options, op func(client int, i uint64) error, arm func(on bool) error) (*loadRun, error) {
	r := &loadRun{}
	measure := func(seconds float64) *window {
		w := closedLoop(clients, seconds, r.next, op)
		r.next += uint64(len(w.ops))
		r.all = append(r.all, w)
		return w
	}
	measure(math.Min(1, opt.seconds/10))
	if !opt.trace {
		r.plain = append(r.plain, measure(opt.seconds))
		return r, nil
	}
	r.plain = append(r.plain, measure(opt.seconds/4))
	if err := arm(true); err != nil {
		return nil, err
	}
	r.traced = measure(opt.seconds / 2)
	if err := arm(false); err != nil {
		return nil, err
	}
	r.plain = append(r.plain, measure(opt.seconds/4))
	return r, nil
}

// finish counts every window's ops on the report and records the
// end-to-end figures, or with tracing the tracing overhead. It reports
// whether the run was traced.
func (r *loadRun) finish(rep *report) bool {
	for _, w := range r.all {
		rep.count(w)
		for _, err := range w.errs {
			rep.note("failed op: %v", err)
		}
	}
	if r.traced == nil {
		rep.setLatency(r.plain[0])
		return false
	}
	var ok int
	var elapsed time.Duration
	for _, w := range r.plain {
		ok += len(w.ops) - w.failed()
		elapsed += w.elapsed
	}
	u, t := float64(ok)/elapsed.Seconds(), r.traced.opsPerS()
	rep.set("prof.overhead_frac", "ratio", len(r.traced.ops), 1-t/u)
	rep.note("prof.overhead_frac = 1 - traced/untraced ops per second = 1 - %.4g/%.4g", t, u)
	return true
}
