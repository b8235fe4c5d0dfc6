package mobilenet

import "mobilenet/internal/sweep"

// Sweep declares a parameter sweep: a base scenario plus the axes that
// vary it, expanded cartesian (default) or zipped ("zip"). Like
// scenarios, sweeps are plain data — the same JSON object drives
// RunSweep, `mobisim -sweep`, and the mobiserved POST /v1/sweeps
// endpoint — and the expanded point set canonicalises to an
// order-independent content hash (Sweep.Hash).
type Sweep = sweep.Spec

// SweepAxis varies one scenario field across a sweep. Exactly one of
// Values or the From/To/Step range must be given; see SweepFields for the
// sweepable field names.
type SweepAxis = sweep.Axis

// SweepAggregate summarises the Steps measurement across one sweep
// point's replicates.
type SweepAggregate = sweep.Aggregate

// SweepFit is the optional log-log power-law fit of per-point median
// steps against the numeric axis named by Sweep.Fit.
type SweepFit = sweep.Fit

// SweepPoint is one expanded, executed sweep coordinate; its canonical
// scenario is the Spec field.
type SweepPoint = sweep.PointResult

// SweepResult is the outcome of a sweep: every point in expansion order
// plus the sweep-level aggregates. Its JSON encoding matches the
// mobiserved sweep result payload field for field.
type SweepResult = sweep.Result

// ParseSweep decodes a Sweep from JSON, rejecting unknown fields.
func ParseSweep(data []byte) (Sweep, error) { return sweep.Parse(data) }

// SweepFields returns the sweepable scenario field names, sorted.
func SweepFields() []string { return sweep.Fields() }

// RunSweep validates, expands and executes a sweep through the shared
// engine dispatch: every distinct point runs once on a bounded worker
// pool (duplicate points share a result, the in-process analogue of the
// service's hash-keyed cache), a failing point cancels remaining
// dispatch and surfaces the lowest-indexed point's error, and per-point
// replicate statistics are aggregated. The same sweep submitted to a
// mobiserved instance produces byte-identical per-point results.
func RunSweep(s Sweep) (*SweepResult, error) { return sweep.Run(s, sweep.Options{}) }
