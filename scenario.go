package mobilenet

import (
	"io"

	"mobilenet/internal/prof"
	"mobilenet/internal/scenario"
)

// Scenario declares one simulation as plain data: the engine, the arena,
// the population, the dissemination parameters and the requested metrics.
// It is the single source of truth for "what is a simulation" — the same
// spec drives RunScenario here, cmd/mobisim, and the mobiserved HTTP
// service, and canonicalises to a content hash usable as a cache key.
// Zero-valued optional fields select engine defaults; the minimal useful
// spec is just Engine, Nodes and Agents. Its methods (Validate, Canonical,
// Hash, HasMetric) and field docs live on the aliased internal type.
type Scenario = scenario.Spec

// ScenarioRep is the outcome of one scenario replicate. Fields an engine
// does not produce hold their zero value (CoverageSteps is -1 when not
// measured).
type ScenarioRep = scenario.Rep

// ScenarioResult is the uniform outcome of a scenario run: every replicate
// in replicate order plus summary statistics. It is a deterministic
// function of the canonical scenario. WriteSeriesNDJSON, WriteSeriesCSV and
// WriteSeriesTableJSON render its aggregated series.
type ScenarioResult = scenario.Result

// PhaseBreakdown reports where a run's step time went, split over the fixed
// phase vocabulary: "move" (motion stepping), "index" (spatial-index
// build), "label" (connectivity resolution), "spread" (information
// propagation) and "observe" (measurement). Timings are wall-clock
// measurements of the executing machine, not simulation outcomes.
type PhaseBreakdown = prof.Breakdown

// ParseScenario decodes a Scenario from JSON, rejecting unknown fields.
func ParseScenario(data []byte) (Scenario, error) { return scenario.Parse(data) }

// ScenarioEngines returns the available engine names, sorted.
func ScenarioEngines() []string { return scenario.Engines() }

// RunScenario validates, canonicalises and executes a scenario through the
// shared engine dispatch — the same path cmd/mobisim and the mobiserved
// service use, so a library run reproduces a service run bit for bit.
func RunScenario(s Scenario) (*ScenarioResult, error) { return scenario.Run(s) }

// ExecTrace is the execution trace of a scenario run: one span per
// replicate (annotated with its step-phase breakdown when the scenario
// profiled), on a shared timeline starting at the run's submission.
// Traces record wall-clock facts about one execution of this machine —
// they are observability artifacts, never part of the result.
type ExecTrace struct {
	tr *prof.Trace
}

// WriteChromeTrace writes the trace in the Chrome trace-event JSON format,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func (t *ExecTrace) WriteChromeTrace(w io.Writer) error { return t.tr.WriteChromeTrace(w) }

// RunScenarioTraced is RunScenario recording an execution trace: per-
// replicate spans with wall-clock timings, plus the per-phase split when
// s.Profile is set. The result is identical to an untraced run.
func RunScenarioTraced(s Scenario) (*ScenarioResult, *ExecTrace, error) {
	tr := prof.NewTrace()
	res, err := scenario.RunWithTrace(s, tr)
	if err != nil {
		return nil, nil, err
	}
	return res, &ExecTrace{tr: tr}, nil
}
