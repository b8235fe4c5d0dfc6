package prof

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Trace collects spans — named, timed intervals attributed to a logical
// thread — and serialises them as Chrome trace-event JSON, the format
// Perfetto and chrome://tracing load directly. One Trace spans one logical
// operation (an HTTP request, a job, a CLI run); spans within it share the
// trace's epoch so their timestamps nest correctly in the viewer.
//
// All methods are safe on a nil receiver (no-ops returning zero values), so
// call sites thread a possibly-nil *Trace unconditionally, mirroring
// StepProfile. A non-nil Trace is safe for concurrent use.
type Trace struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []Span
	threads map[int64]string
}

// Span is one completed interval in a trace.
type Span struct {
	// Name is the span's display name ("execute", "rep 3", ...).
	Name string
	// Cat is the span's category ("job", "rep", "http", ...).
	Cat string
	// TID is the logical thread the span belongs to; spans with equal TID
	// render on one row in the viewer.
	TID int64
	// Start is the span's offset from the trace epoch.
	Start time.Duration
	// Dur is the span's duration.
	Dur time.Duration
	// Args holds optional key-value annotations shown in the viewer's
	// detail pane.
	Args map[string]string
}

// NewTrace returns an empty trace whose epoch is the current instant.
func NewTrace() *Trace {
	return &Trace{epoch: time.Now(), threads: make(map[int64]string)}
}

// Epoch returns the trace's zero instant (zero time on nil).
func (t *Trace) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// Add records a completed span from its absolute start time and duration.
// No-op on a nil receiver.
func (t *Trace) Add(name, cat string, tid int64, start time.Time, d time.Duration, args map[string]string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{
		Name:  name,
		Cat:   cat,
		TID:   tid,
		Start: start.Sub(t.epoch),
		Dur:   d,
		Args:  args,
	})
	t.mu.Unlock()
}

// NameThread assigns a display name to a logical thread id, emitted as
// thread_name metadata so the viewer labels the row. No-op on nil.
func (t *Trace) NameThread(tid int64, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.threads[tid] = name
	t.mu.Unlock()
}

// Len returns the number of recorded spans (0 on nil).
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Spans returns a snapshot copy of the recorded spans (nil on nil).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// traceEvent is one entry of the Chrome trace-event JSON array. Complete
// spans use ph "X" with microsecond ts/dur; thread names use the "M"
// metadata form. See the Trace Event Format spec (Chromium project).
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  *float64          `json:"dur,omitempty"`
	PID  int64             `json:"pid"`
	TID  int64             `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// traceFile is the object form of the format: Perfetto and chrome://tracing
// accept {"traceEvents": [...]}.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// tracePID is the fixed process id stamped on every event: one Trace always
// describes one logical process.
const tracePID = 1

// WriteChromeTrace serialises the trace as Chrome trace-event JSON. Thread
// name metadata events precede the span events, spans appear in recording
// order, and timestamps are microseconds from the trace epoch. Writing a
// nil or empty trace emits a valid file with an empty event array.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	f := traceFile{TraceEvents: []traceEvent{}, DisplayTimeUnit: "ms"}
	if t != nil {
		t.mu.Lock()
		tids := make([]int64, 0, len(t.threads))
		for tid := range t.threads {
			tids = append(tids, tid)
		}
		// Deterministic metadata order: ascending tid.
		for i := 1; i < len(tids); i++ {
			for j := i; j > 0 && tids[j-1] > tids[j]; j-- {
				tids[j-1], tids[j] = tids[j], tids[j-1]
			}
		}
		for _, tid := range tids {
			f.TraceEvents = append(f.TraceEvents, traceEvent{
				Name: "thread_name",
				Ph:   "M",
				PID:  tracePID,
				TID:  tid,
				Args: map[string]string{"name": t.threads[tid]},
			})
		}
		for _, s := range t.spans {
			dur := float64(s.Dur) / float64(time.Microsecond)
			f.TraceEvents = append(f.TraceEvents, traceEvent{
				Name: s.Name,
				Cat:  s.Cat,
				Ph:   "X",
				TS:   float64(s.Start) / float64(time.Microsecond),
				Dur:  &dur,
				PID:  tracePID,
				TID:  s.TID,
				Args: s.Args,
			})
		}
		t.mu.Unlock()
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

// ValidateChromeTrace parses data as Chrome trace-event JSON and checks the
// structural invariants the exporters guarantee: a top-level traceEvents
// array whose entries each carry a name, a known phase ("X" or "M"), and —
// for complete spans — non-negative ts and dur. It returns the number of
// span ("X") events. Consumers (cmd/tracecheck in CI, mobibench's
// -trace-out export, the exporter tests) share this one definition of
// "parses as a trace".
func ValidateChromeTrace(data []byte) (spans int, err error) {
	var f struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			TS   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return 0, err
	}
	if f.TraceEvents == nil {
		return 0, errMissingEvents
	}
	for i, e := range f.TraceEvents {
		if e.Name == "" {
			return 0, validationError{i, "missing name"}
		}
		switch e.Ph {
		case "X":
			if e.TS == nil || *e.TS < 0 {
				return 0, validationError{i, "X event without non-negative ts"}
			}
			if e.Dur == nil || *e.Dur < 0 {
				return 0, validationError{i, "X event without non-negative dur"}
			}
			spans++
		case "M":
			// Metadata events carry no timing.
		default:
			return 0, validationError{i, "unknown ph " + e.Ph}
		}
	}
	return spans, nil
}

// errMissingEvents reports a document without a traceEvents array.
var errMissingEvents = validationError{-1, "no traceEvents array"}

// validationError locates a malformed trace event by index (-1 for
// document-level problems).
type validationError struct {
	index int
	msg   string
}

// Error implements the error interface.
func (e validationError) Error() string {
	if e.index < 0 {
		return "chrome trace: " + e.msg
	}
	return "chrome trace: event " + itoa(e.index) + ": " + e.msg
}

// itoa formats a small non-negative int without pulling in fmt for the
// error path.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
