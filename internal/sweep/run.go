package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"mobilenet/internal/scenario"
	"mobilenet/internal/stats"
	"mobilenet/internal/tableio"
)

// Options tunes a sweep run. The zero value selects the defaults.
type Options struct {
	// Workers bounds the point pool; 0 selects GOMAXPROCS. Point runs are
	// pinned to sequential component labelling (the pool is the
	// parallelism layer), mirroring the simulation service.
	Workers int
	// RunPoint overrides how one canonical point spec is executed; nil
	// selects the scenario.Runner registry via scenario.Run. It is the
	// failure-injection seam for tests; the simulation service runs its
	// points through its own dispatcher, not through Run.
	RunPoint func(spec scenario.Spec) (*scenario.Result, error)
	// RequireCompleted turns a replicate that hit its step cap into a
	// point error. The scaling-law experiments set it: a capped T_B is
	// not a measurement.
	RequireCompleted bool
	// OnPoint, when non-nil, receives each point and its result as it
	// completes (in completion order, from pool goroutines — the callback
	// must be safe for concurrent use).
	OnPoint func(p Point, res *scenario.Result)
}

// Aggregate summarises the Steps measurement across one point's
// replicates.
type Aggregate struct {
	// Reps is the replicate count.
	Reps int `json:"reps"`
	// Mean and StdDev are the sample mean and standard deviation.
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	// Median is the sample median — the statistic the scaling-law fits
	// use, being robust to the heavy upper tails of dissemination times.
	Median float64 `json:"median"`
	// CILow and CIHigh bound the Student-t 95% confidence interval of the
	// mean (see stats.TCritical95).
	CILow  float64 `json:"ci95_low"`
	CIHigh float64 `json:"ci95_high"`
	// Min and Max are the sample extremes.
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// Fit is the optional log-log power-law fit of per-point median steps
// against the numeric axis named by Spec.Fit.
type Fit struct {
	// Axis is the fitted axis field.
	Axis string `json:"axis"`
	// Alpha is the exponent (the log-log slope).
	Alpha float64 `json:"alpha"`
	// C is the multiplicative constant.
	C float64 `json:"c"`
	// AlphaErr is the standard error of the slope.
	AlphaErr float64 `json:"alpha_err"`
	// R2 is the coefficient of determination in log space.
	R2 float64 `json:"r2"`
	// N is the number of fitted points.
	N int `json:"n"`
}

// String renders the fit in the repository's power-law convention.
func (f Fit) String() string {
	return fmt.Sprintf("median = %.3g * %s^%.3f (±%.3f, R²=%.3f, n=%d)",
		f.C, f.Axis, f.Alpha, f.AlphaErr, f.R2, f.N)
}

// PointResult couples one expanded point with its scenario result and
// replicate statistics.
type PointResult struct {
	Point
	// Steps summarises the Steps measurement across replicates.
	Steps Aggregate `json:"steps"`
	// AllCompleted reports whether every replicate finished under the cap.
	AllCompleted bool `json:"all_completed"`
	// Result is the full scenario result — byte-identical, once encoded,
	// to a scenario.Run or simulation-service payload for the same point.
	Result *scenario.Result `json:"result"`
}

// Result is the outcome of a sweep: every point in expansion order plus
// the sweep-level aggregates.
type Result struct {
	// Label echoes the spec's label.
	Label string `json:"label,omitempty"`
	// Hash is the sweep content hash (HashPoints of the expanded set).
	Hash string `json:"hash"`
	// AxisFields names the axis columns, in axis order.
	AxisFields []string `json:"axis_fields"`
	// Points holds the per-point results in expansion order.
	Points []PointResult `json:"points"`
	// Fit is the optional scaling-law fit; nil unless the spec asked.
	Fit *Fit `json:"fit,omitempty"`
}

// Steps extracts the per-replicate Steps measurements of a scenario
// result as floats, the sample every aggregate is computed over.
func Steps(res *scenario.Result) []float64 {
	out := make([]float64, len(res.Reps))
	for i, r := range res.Reps {
		out[i] = float64(r.Steps)
	}
	return out
}

// aggregate summarises one point result.
func aggregate(res *scenario.Result) (Aggregate, error) {
	s, err := stats.Summarize(Steps(res))
	if err != nil {
		return Aggregate{}, err
	}
	return Aggregate{
		Reps:   s.N,
		Mean:   s.Mean,
		StdDev: s.StdDev,
		Median: s.Median,
		CILow:  s.CILow,
		CIHigh: s.CIHigh,
		Min:    s.Min,
		Max:    s.Max,
	}, nil
}

// Assemble builds the sweep Result from an expanded point set and its
// per-point scenario results (parallel slices in expansion order). Both
// execution paths — the library pool here and the simulation service's
// cache-aware dispatcher — funnel through this, so their sweep results
// are structurally identical.
func Assemble(sp Spec, points []Point, results []*scenario.Result) (*Result, error) {
	if len(points) != len(results) {
		return nil, fmt.Errorf("sweep: %d results for %d points", len(results), len(points))
	}
	out := &Result{
		Label:      sp.Label,
		Hash:       HashPoints(points),
		AxisFields: sp.AxisFields(),
		Points:     make([]PointResult, len(points)),
	}
	for i, p := range points {
		if results[i] == nil {
			return nil, fmt.Errorf("sweep: missing result for point %d", i)
		}
		agg, err := aggregate(results[i])
		if err != nil {
			return nil, fmt.Errorf("sweep: point %d: %w", i, err)
		}
		out.Points[i] = PointResult{
			Point:        p,
			Steps:        agg,
			AllCompleted: results[i].AllCompleted,
			Result:       results[i],
		}
	}
	if sp.Fit != "" {
		fit, err := fitPoints(sp, out.Points)
		if err != nil {
			return nil, err
		}
		out.Fit = fit
	}
	return out, nil
}

// fitPoints fits median steps against the fit axis in log-log space.
func fitPoints(sp Spec, points []PointResult) (*Fit, error) {
	axis := -1
	for i, f := range sp.AxisFields() {
		if f == sp.Fit {
			axis = i
		}
	}
	if axis < 0 {
		return nil, fmt.Errorf("sweep: fit names %q, which is not an axis", sp.Fit)
	}
	xs := make([]float64, len(points))
	ys := make([]float64, len(points))
	for i, p := range points {
		v, ok := p.Values[axis].(int64)
		if !ok {
			return nil, fmt.Errorf("sweep: fit axis %q has non-numeric value %v", sp.Fit, p.Values[axis])
		}
		xs[i] = float64(v)
		ys[i] = p.Steps.Median
	}
	pf, err := stats.FitPowerLaw(xs, ys)
	if err != nil {
		return nil, fmt.Errorf("sweep: fit: %w", err)
	}
	return &Fit{
		Axis:     sp.Fit,
		Alpha:    pf.Alpha,
		C:        pf.C(),
		AlphaErr: pf.AlphaErr,
		R2:       pf.R2,
		N:        pf.N,
	}, nil
}

// Run expands the sweep and executes every distinct point on a bounded
// worker pool, sharing one execution between points that canonicalise to
// the same scenario (the in-process analogue of the service's hash-keyed
// dedup). Error semantics are Each's: the first failure cancels the
// dispatch of further points (points already executing finish their run)
// and the error of the lowest-indexed failed point is returned.
func Run(sp Spec, opt Options) (*Result, error) {
	points, err := sp.Expand()
	if err != nil {
		return nil, err
	}
	results, err := runPoints(points, opt)
	if err != nil {
		return nil, err
	}
	return Assemble(sp, points, results)
}

// runPoints executes the distinct specs of an expanded point set and fans
// the results back out over duplicate points.
func runPoints(points []Point, opt Options) ([]*scenario.Result, error) {
	runPoint := opt.RunPoint
	if runPoint == nil {
		runPoint = func(spec scenario.Spec) (*scenario.Result, error) {
			// The pool is the parallelism layer: pin each point to
			// sequential component labelling, as the service does.
			spec.Parallelism = 1
			return scenario.Run(spec)
		}
	}
	uniq := Distinct(points)
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]*scenario.Result, len(points))
	err := Each(len(uniq), workers, func(_ context.Context, ui int) error {
		u := uniq[ui]
		res, err := runPoint(u.Spec)
		if err != nil {
			return fmt.Errorf("sweep: point %d: %w", u.Index, err)
		}
		if opt.RequireCompleted && !res.AllCompleted {
			return fmt.Errorf("sweep: point %d (%s) hit the step cap before completing", u.Index, u.Hash[:12])
		}
		for _, idx := range u.Indices {
			results[idx] = res
		}
		if opt.OnPoint != nil {
			opt.OnPoint(u.Point, res)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Each calls fn(ctx, i) for every i in [0, n) on at most workers
// goroutines, dispatching in index order — the one bounded pool behind
// sweep points here, experiment replicates and the simulation service's
// sweep dispatcher. The first failure stops dispatch and cancels the ctx
// handed to calls still running; a goroutine whose call failed takes no
// more work. workers <= 1 runs a plain loop that stops at the first
// failure. Each returns the error of the lowest-indexed failed call.
func Each(n, workers int, fn func(ctx context.Context, i int) error) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg   sync.WaitGroup
		next = make(chan int)
		errs = make([]error, n)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if errs[i] = fn(ctx, i); errs[i] != nil {
					cancel()
					return
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n && ctx.Err() == nil; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Table renders the sweep as a rectangular table: one row per point, the
// axis coordinates first, then the replicate statistics. This is the
// shape `mobisim -sweep` prints and exports as CSV/JSON.
func (r *Result) Table() *tableio.Table {
	title := r.Label
	if title == "" {
		title = "sweep " + shortHash(r.Hash)
	}
	cols := append(append([]string{}, r.AxisFields...),
		"reps", "mean_steps", "stddev", "median", "ci95_low", "ci95_high", "all_completed", "hash")
	t := tableio.NewTable(title, cols...)
	for _, p := range r.Points {
		cells := make([]any, 0, len(cols))
		cells = append(cells, p.Values...)
		cells = append(cells, p.Steps.Reps, p.Steps.Mean, p.Steps.StdDev, p.Steps.Median,
			p.Steps.CILow, p.Steps.CIHigh, p.AllCompleted, shortHash(p.Hash))
		t.AddRow(cells...)
	}
	return t
}

// shortHash abbreviates a content hash for table cells.
func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}
