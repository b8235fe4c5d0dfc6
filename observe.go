package mobilenet

import (
	"fmt"

	"mobilenet/internal/obs"
	"mobilenet/internal/scenario"
)

// Observation requests per-step time-series observables from a simulation:
// which series to record, how often, and an optional point cap. It is a
// scenario's `observe` block. Unlike execution-only knobs, an observation
// changes the result payload, so it is part of the scenario content hash:
// two scenarios that differ only in their observation are different
// simulations.
type Observation = obs.Spec

// RepSeries is one replicate's recorded time series: the sampled steps
// and, per observable, the values at those steps (parallel to Steps).
type RepSeries = obs.SeriesSet

// Series is one observable's aggregate across a scenario's replicates: at
// every step sampled by at least one replicate, the across-replicate mean
// and Student-t 95% confidence interval. The arrays are parallel.
type Series = obs.AggSeries

// ObservableNames returns every defined observable name, sorted.
func ObservableNames() []string { return obs.Names() }

// EngineObservables returns the observables the named engine can record,
// sorted; nil for unknown engines.
func EngineObservables(engine string) []string { return scenario.Observables(engine) }

// WithObservations makes every simulation the Network runs record the
// requested per-step series; the engine-specific subset of the observables
// is recorded (e.g. Broadcast fills "informed" and the component series,
// CoverTime fills "coverage") and returned in the result's Series field.
// Observation costs no per-step allocation.
func WithObservations(o Observation) Option {
	return func(opt *options) error {
		if err := o.Validate(); err != nil {
			return fmt.Errorf("mobilenet: %w", err)
		}
		opt.observe = &o
		return nil
	}
}

// recorder builds the Network's observation recorder for one engine, or
// nil when no observation was requested or the engine records none of the
// requested observables.
func (nw *Network) recorder(engine string) *obs.Recorder {
	if nw.opt.observe == nil {
		return nil
	}
	vocab := map[string]bool{}
	for _, n := range scenario.Observables(engine) {
		vocab[n] = true
	}
	spec, ok, err := nw.opt.observe.Canonical(func(n string) bool { return vocab[n] })
	if err != nil || !ok {
		// Validation ran in WithObservations; an empty filter result just
		// means this engine records nothing.
		return nil
	}
	return obs.NewRecorder(spec)
}
