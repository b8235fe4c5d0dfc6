package scenario

import (
	"fmt"
	"io"

	"mobilenet/internal/obs"
	"mobilenet/internal/prof"
)

// Rep is the outcome of one replicate. Fields an engine does not produce
// hold their zero value (CoverageSteps uses -1 for "not measured", matching
// the engines' convention).
type Rep struct {
	// Seed is the seed this replicate ran under (see RepSeed).
	Seed uint64 `json:"seed"`
	// Steps is the engine's primary time measurement: T_B, T_G, the frog
	// broadcast time, the cover time, or the extinction time. Valid when
	// Completed; otherwise it equals the step cap that was hit.
	Steps int `json:"steps"`
	// Completed is false when the step cap ended the run first.
	Completed bool `json:"completed"`
	// Source is the realised source agent (broadcast and frog).
	Source int `json:"source"`
	// CoverageSteps is the broadcast coverage time T_C under the
	// "coverage" metric; -1 when not measured or not reached.
	CoverageSteps int `json:"coverage_steps"`
	// Covered is the covered-node count (coverage engine).
	Covered int `json:"covered"`
	// Survivors is the surviving-prey count (predator engine).
	Survivors int `json:"survivors"`
	// Curve is the per-step progress curve under the "curve" metric.
	Curve []int `json:"curve,omitempty"`
	// Series holds this replicate's recorded time series under the
	// spec's observe block; nil when the spec observes nothing.
	Series *obs.SeriesSet `json:"series,omitempty"`
	// Phases is the step-phase wall-clock breakdown recorded under
	// Spec.Profile; nil when profiling was off. Timings are measurements
	// of this machine, not simulation outcomes: the service strips them
	// before assembly so cached payloads stay deterministic.
	Phases *prof.Breakdown `json:"phases,omitempty"`
}

// Result is the uniform outcome of running a Spec: the canonical identity
// of the simulation plus every replicate in replicate order. Results are
// deterministic functions of the canonical spec — the library path
// (scenario.Run) and the service path (simserve) produce byte-identical
// encodings — which is what makes hash-keyed caching sound.
type Result struct {
	// Engine is the canonical engine name.
	Engine string `json:"engine"`
	// Hash is the canonical content hash of the spec that produced this.
	Hash string `json:"hash"`
	// Reps holds every replicate outcome, in replicate order.
	Reps []Rep `json:"reps"`
	// MeanSteps is the mean of Steps over all replicates (capped runs
	// contribute the cap they hit).
	MeanSteps float64 `json:"mean_steps"`
	// AllCompleted reports whether every replicate finished under the cap.
	AllCompleted bool `json:"all_completed"`
	// Series aggregates the replicates' observed time series per
	// observable (across-replicate mean and Student-t 95% CI at every
	// sampled step); nil when the spec observes nothing.
	Series []obs.AggSeries `json:"series,omitempty"`
	// Phases merges the replicates' step-phase breakdowns (summed seconds,
	// fractions over the merged total); nil when no replicate was profiled.
	Phases *prof.Breakdown `json:"phases,omitempty"`
}

// Assemble builds the Result for a canonical spec from its per-replicate
// outcomes, which must be in replicate order and complete; hash is the
// spec's precomputed content hash (callers always have it in hand, and
// recomputing it would re-validate the whole spec). Both execution paths
// (serial library, pooled service) funnel through this so their results
// are structurally identical.
func Assemble(canonical Spec, hash string, reps []Rep) (*Result, error) {
	if len(reps) != canonical.Reps {
		return nil, fmt.Errorf("scenario: %d replicate outcomes for %d requested reps", len(reps), canonical.Reps)
	}
	res := &Result{
		Engine:       canonical.Engine,
		Hash:         hash,
		Reps:         reps,
		AllCompleted: true,
	}
	var sum float64
	for _, r := range reps {
		sum += float64(r.Steps)
		if !r.Completed {
			res.AllCompleted = false
		}
	}
	res.MeanSteps = sum / float64(len(reps))
	if canonical.Observe != nil {
		sets := make([]*obs.SeriesSet, len(reps))
		for i := range reps {
			sets[i] = reps[i].Series
		}
		res.Series = obs.Aggregate(sets)
	}
	breakdowns := make([]*prof.Breakdown, len(reps))
	for i := range reps {
		breakdowns[i] = reps[i].Phases
	}
	res.Phases = prof.MergeBreakdowns(breakdowns...)
	return res, nil
}

// WriteSeriesNDJSON streams the result's aggregated series as
// newline-delimited JSON, one object per (observable, step) sample. This
// is the canonical series wire encoding: `mobisim -series-out -` and the
// mobiserved GET /v1/results/{hash}/series endpoint emit exactly these
// bytes for the same scenario.
func (r *Result) WriteSeriesNDJSON(w io.Writer) error {
	return obs.WriteNDJSON(w, r.Series)
}

// WriteSeriesCSV renders the aggregated series as a rectangular CSV table
// — one row per (observable, step) sample — the form `mobisim -series-out
// file.csv` exports.
func (r *Result) WriteSeriesCSV(w io.Writer) error {
	return obs.Table(r.Series).WriteCSV(w)
}

// WriteSeriesTableJSON renders the aggregated series as the tabular JSON
// object ({columns, rows}, cells as rendered strings) the CSV form mirrors
// — the `mobisim -series-out file.json` export.
func (r *Result) WriteSeriesTableJSON(w io.Writer) error {
	return obs.Table(r.Series).WriteJSON(w)
}
