package visibility

// Ablation benchmarks for the component-labelling design choices called out
// in DESIGN.md. Four generations of the labeller are compared: the O(k²)
// all-pairs brute force, the map-backed spatial hash it was first replaced
// by (retained here verbatim as mapLabeller), the flat CSR bucket index
// that rebuilds from scratch every call, and the incremental labeller that
// maintains the index across steps. Correctness equivalence is established
// by TestAblationBaselinesAgree, the differential harness in
// differential_test.go, and the brute-force comparison tests in
// visibility_test.go; these benchmarks quantify the gaps at sparse-regime
// densities. DESIGN.md §7 and §14 quote the measured trajectory.

import (
	"fmt"
	"math"
	"testing"

	"mobilenet/internal/grid"
	"mobilenet/internal/rng"
	"mobilenet/internal/unionfind"
	"mobilenet/internal/walk"
)

// bruteLabeller is the all-pairs baseline: check every agent pair.
type bruteLabeller struct {
	dsu    *unionfind.DSU
	labels []int32
}

func newBruteLabeller(k int) *bruteLabeller {
	return &bruteLabeller{dsu: unionfind.New(k), labels: make([]int32, k)}
}

func (b *bruteLabeller) components(pos []grid.Point, r int) ([]int32, int) {
	k := len(pos)
	b.dsu.Reset()
	if r >= 0 {
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if grid.ManhattanPoints(pos[i], pos[j]) <= r {
					b.dsu.Union(i, j)
				}
			}
		}
	}
	return b.labels[:k], b.dsu.Labels(b.labels[:k])
}

// mapLabeller is the previous production labeller, frozen for the ablation:
// a map[uint64][]int32 spatial hash with a bucket recycle pool, the design
// the CSR index replaced. Its dense label pass is identical to the current
// one, so its labels — not just its partitions — must match.
type mapLabeller struct {
	dsu       *unionfind.DSU
	buckets   map[uint64][]int32
	keys      []uint64
	pool      [][]int32
	labels    []int32
	rootLabel []int32
}

func newMapLabeller(k int) *mapLabeller {
	return &mapLabeller{
		dsu:       unionfind.New(k),
		buckets:   make(map[uint64][]int32, k),
		labels:    make([]int32, k),
		rootLabel: make([]int32, k),
	}
}

func mapBucketKey(bx, by int32) uint64 {
	return uint64(uint32(bx))<<32 | uint64(uint32(by))
}

func (l *mapLabeller) components(pos []grid.Point, r int) ([]int32, int) {
	k := len(pos)
	d := l.dsu
	d.Reset()

	if r >= 0 && k > 1 {
		cell := int32(r)
		if cell < 1 {
			cell = 1
		}
		for key, b := range l.buckets {
			l.pool = append(l.pool, b[:0])
			delete(l.buckets, key)
		}
		l.keys = l.keys[:0]
		for i := 0; i < k; i++ {
			key := mapBucketKey(pos[i].X/cell, pos[i].Y/cell)
			b, ok := l.buckets[key]
			if !ok {
				if n := len(l.pool); n > 0 {
					b = l.pool[n-1]
					l.pool = l.pool[:n-1]
				}
				l.keys = append(l.keys, key)
			}
			l.buckets[key] = append(b, int32(i))
		}
		if r == 0 {
			for _, key := range l.keys {
				b := l.buckets[key]
				for i := 1; i < len(b); i++ {
					d.Union(int(b[0]), int(b[i]))
				}
			}
		} else {
			forward := [4][2]int32{{1, 0}, {0, 1}, {1, 1}, {-1, 1}}
			for _, key := range l.keys {
				b := l.buckets[key]
				bx := int32(uint32(key >> 32))
				by := int32(uint32(key))
				for i := 0; i < len(b); i++ {
					pi := pos[b[i]]
					for j := i + 1; j < len(b); j++ {
						if grid.ManhattanPoints(pi, pos[b[j]]) <= r {
							d.Union(int(b[i]), int(b[j]))
						}
					}
				}
				for _, off := range forward {
					nb, ok := l.buckets[mapBucketKey(bx+off[0], by+off[1])]
					if !ok {
						continue
					}
					for _, ai := range b {
						pi := pos[ai]
						for _, aj := range nb {
							if grid.ManhattanPoints(pi, pos[aj]) <= r {
								d.Union(int(ai), int(aj))
							}
						}
					}
				}
			}
		}
	}

	rl := l.rootLabel[:k]
	for i := range rl {
		rl[i] = -1
	}
	out := l.labels[:k]
	next := int32(0)
	for i := 0; i < k; i++ {
		root := d.Find(i)
		if rl[root] < 0 {
			rl[root] = next
			next++
		}
		out[i] = rl[root]
	}
	return out, int(next)
}

// benchPositions places k agents uniformly on a side x side box, the
// sparse-regime density all ablation points share (k/n = 1/64, the regime
// where T_B = Θ̃(n/√k) is the binding bound).
func benchPositions(k, side int) []grid.Point {
	src := rng.New(99)
	pos := make([]grid.Point, k)
	for i := range pos {
		pos[i] = grid.Point{X: int32(src.Intn(side)), Y: int32(src.Intn(side))}
	}
	return pos
}

// benchSide keeps the density fixed as k scales: side = 8√k gives
// n = 64k nodes, matching the historical k=1024/side=256 ablation point.
func benchSide(k int) int {
	return int(8 * math.Sqrt(float64(k)))
}

const benchRadius = 8

// BenchmarkComponents is the labeller ablation grid: implementation x
// population size at fixed sparse density. "maphash" is the retired
// map-backed spatial hash, "csr" the flat CSR index (sequential), "csrpar"
// the CSR index with the parallel union phase forced to 4 workers (on a
// single-core host it measures shard overhead; on multicore hardware,
// speedup).
func BenchmarkComponents(b *testing.B) {
	for _, k := range []int{1000, 10000, 100000, 1000000} {
		pos := benchPositions(k, benchSide(k))

		b.Run(fmt.Sprintf("impl=maphash/k=%d", k), func(b *testing.B) {
			l := newMapLabeller(k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.components(pos, benchRadius)
			}
		})
		b.Run(fmt.Sprintf("impl=csr/k=%d", k), func(b *testing.B) {
			l := NewLabeller(k)
			l.SetParallelism(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Components(pos, benchRadius)
			}
		})
		b.Run(fmt.Sprintf("impl=csrpar/k=%d", k), func(b *testing.B) {
			l := NewLabeller(k)
			l.SetParallelism(4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Components(pos, benchRadius)
			}
		})
	}
}

// BenchmarkComponentsStepped is the incremental-kernel ablation: each op
// advances every agent one lazy-walk step and then relabels — the exact
// shape of an engine step loop. The rebuild generations (maphash, csr) pay
// their full per-call cost no matter how little moved; the incremental
// labeller (inc sequential, incpar with the recheck fanned to 4 workers)
// pays only for dirty cells plus the frontier recheck of the cached pair
// set. The gap here — not the static BenchmarkComponents figures, which an
// incremental labeller would short-circuit through its clean-labels path —
// is the design's operating speedup. Every row includes the walk.StepAll
// cost, so the inc rows understate the pure relabel gain.
//
// Two radii are swept: r=1 is the paper's operating regime (the phase
// split in DESIGN.md §12 runs broadcast at r=1), where the pair cache
// is small and most steps flip nothing; r=benchRadius (8) is the saturated
// worst case where ~every cached pair has a moved endpoint every step and
// the pass set is rebuilt wholesale.
func BenchmarkComponentsStepped(b *testing.B) {
	for _, k := range []int{1000, 10000, 100000, 1000000} {
		side := benchSide(k)
		g := grid.MustNew(side)
		impls := []struct {
			name string
			mk   func(r int) (func(pos []grid.Point), *Incremental)
		}{
			// steponly times walk.StepAll with no relabel at all: the
			// motion floor every other row includes. Subtracting it from a
			// labelled row gives that labeller's net per-step cost, which
			// is what the ≥2x acceptance ratio against the static csr
			// figures is computed from (see DESIGN.md §14).
			{"steponly", func(r int) (func([]grid.Point), *Incremental) {
				return func(pos []grid.Point) {}, nil
			}},
			{"maphash", func(r int) (func([]grid.Point), *Incremental) {
				l := newMapLabeller(k)
				return func(pos []grid.Point) { l.components(pos, r) }, nil
			}},
			{"csr", func(r int) (func([]grid.Point), *Incremental) {
				l := NewLabeller(k)
				l.SetParallelism(1)
				return func(pos []grid.Point) { l.Components(pos, r) }, nil
			}},
			{"inc", func(r int) (func([]grid.Point), *Incremental) {
				l := NewIncremental(k)
				l.SetParallelism(1)
				return func(pos []grid.Point) { l.Components(pos, r) }, l
			}},
			{"incpar", func(r int) (func([]grid.Point), *Incremental) {
				l := NewIncremental(k)
				l.SetParallelism(4)
				return func(pos []grid.Point) { l.Components(pos, r) }, l
			}},
		}
		for _, r := range []int{1, benchRadius} {
			for _, im := range impls {
				b.Run(fmt.Sprintf("impl=%s/k=%d/r=%d", im.name, k, r), func(b *testing.B) {
					pos := benchPositions(k, side)
					buf := make([]uint64, 0, k)
					src := rng.New(2024)
					relabel, probe := im.mk(r)
					// Warm-up establishes the incremental pair cache's
					// high-water mark so steady state is what gets timed.
					for w := 0; w < 8; w++ {
						walk.StepAll(g, pos, buf, src)
						relabel(pos)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						walk.StepAll(g, pos, buf, src)
						relabel(pos)
					}
					if probe != nil {
						// Frontier occupancy of the final timed step: the
						// fraction of agents that moved and of cached pairs
						// with a moved endpoint. These are the figures the
						// DESIGN.md §14 "no pair-walk index" decision rests
						// on — the lazy walk moves half the agents per step,
						// so ~3/4 of cached pairs are on the frontier and a
						// moved-pair index could skip only the last quarter.
						b.ReportMetric(float64(len(probe.movedList))/float64(k), "moved-frac")
						b.ReportMetric(movedPairFraction(probe), "moved-pair-frac")
					}
				})
			}
		}
	}
}

// movedPairFraction reports the fraction of the incremental labeller's
// cached candidate pairs with at least one endpoint in the last step's
// moved set — the share of the pair slab a moved-endpoint-only walk index
// would still have to visit.
func movedPairFraction(x *Incremental) float64 {
	n := len(x.pairs) / 2
	if n == 0 {
		return 0
	}
	mask := make([]uint64, (x.k+63)/64)
	for _, i := range x.movedList {
		mask[i>>6] |= 1 << (uint(i) & 63)
	}
	moved := 0
	for pi := 0; pi < n; pi++ {
		a, b := x.pairs[2*pi], x.pairs[2*pi+1]
		if mask[a>>6]&(1<<(uint(a)&63)) != 0 || mask[b>>6]&(1<<(uint(b)&63)) != 0 {
			moved++
		}
	}
	return float64(moved) / float64(n)
}

// BenchmarkAblationBruteForceK1024 keeps the all-pairs baseline in the
// record; it is too slow to sweep past k=1024.
func BenchmarkAblationBruteForceK1024(b *testing.B) {
	pos := benchPositions(1024, 256)
	l := newBruteLabeller(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.components(pos, benchRadius)
	}
}

// TestAblationBaselinesAgree pins all five implementations to each other at
// bench parameters: identical labels, not just partitions. Every
// implementation assigns labels by first appearance in agent-index order —
// a function of the partition alone — so label slices must match exactly
// however the unions were ordered. (The radius sweep forces the incremental
// labeller to rebuild each round; its stepped dirty-cell path is pinned by
// the differential harness in differential_test.go.)
func TestAblationBaselinesAgree(t *testing.T) {
	t.Parallel()
	pos := benchPositions(256, 128)
	legacy := newMapLabeller(256)
	csr := NewLabeller(256)
	csr.SetParallelism(1)
	par := NewLabeller(256)
	par.SetParallelism(3)
	inc := NewIncremental(256)
	inc.SetParallelism(1)
	slow := newBruteLabeller(256)
	for _, r := range []int{0, 4, 8, 16} {
		ml, mc := legacy.components(pos, r)
		mlCopy := append([]int32(nil), ml...)
		cl, cc := csr.Components(pos, r)
		clCopy := append([]int32(nil), cl...)
		pl, pc := par.Components(pos, r)
		plCopy := append([]int32(nil), pl...)
		il, ic := inc.Components(pos, r)
		ilCopy := append([]int32(nil), il...)
		sl, sc := slow.components(pos, r)
		if mc != cc || cc != pc || pc != ic || ic != sc {
			t.Fatalf("r=%d: counts differ map=%d csr=%d par=%d inc=%d brute=%d", r, mc, cc, pc, ic, sc)
		}
		for i := range clCopy {
			if clCopy[i] != mlCopy[i] || clCopy[i] != plCopy[i] || clCopy[i] != ilCopy[i] || clCopy[i] != sl[i] {
				t.Fatalf("r=%d: labels differ at %d: map=%d csr=%d par=%d inc=%d brute=%d",
					r, i, mlCopy[i], clCopy[i], plCopy[i], ilCopy[i], sl[i])
			}
		}
	}
}
