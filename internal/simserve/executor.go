package simserve

import (
	"context"
	"errors"
	"time"

	"mobilenet/internal/sweep"
)

// PointExecutor is the sweep dispatcher's execution seam: one call turns a
// distinct sweep point into its encoded result payload. The default (nil
// Config.Executor) implementation runs points on the server's own worker
// pool through the ordinary submit path; a coordinator plugs in a
// fleet-sharding implementation (internal/cluster) that sends each point
// to the worker rendezvous hashing elects for its content hash. The
// dispatcher neither knows nor cares which — progress accounting, error
// semantics and the in-flight bound live above the seam, execution below
// it.
type PointExecutor interface {
	// ExecutePoint returns the payload for the point's canonical spec —
	// byte-identical to what a direct submission of the spec would serve —
	// and whether it was answered without creating new work (a cache hit
	// wherever the point executed). Implementations should return promptly
	// once progress.Ctx is done and call progress.Started once when real
	// execution begins (cached answers never start).
	ExecutePoint(p sweep.Point, opts SubmitOptions, progress PointProgress) (payload []byte, cached bool, err error)
}

// PointProgress carries the dispatcher's signals into an executor.
type PointProgress struct {
	// Ctx is cancelled once the sweep has failed and further work is
	// wasted. A point abandoned on it should return an error wrapping
	// context.Canceled: the dispatcher then marks it cancelled rather than
	// reporting it as the sweep's failure.
	Ctx context.Context
	// Started marks the point as running in the sweep's progress view. It
	// is safe for concurrent use.
	Started func()
}

// Concurrency is the optional executor interface that widens the
// dispatcher's in-flight bound. The local executor is bounded by the
// worker pool it feeds, but a fleet executor multiplexes N remote pools
// and would idle them at the local bound.
type Concurrency interface {
	// PointConcurrency returns the number of points the executor wants in
	// flight at once; values < 1 defer to the server's worker count.
	PointConcurrency() int
}

// queueFullRetry is how long a sweep dispatcher backs off when the run
// queue cannot hold a point's replicates. Sweeps are the service's own
// batch clients, so they absorb backpressure by waiting instead of
// surfacing 503s to the submitter.
const queueFullRetry = 2 * time.Millisecond

// localExecutor is the default PointExecutor: points ride the ordinary
// submit path — answered from the tiered cache, coalesced onto an
// identical in-flight job, or executed on this server's pool — exactly as
// if each had been POSTed individually.
type localExecutor struct{ s *Server }

func (e localExecutor) ExecutePoint(p sweep.Point, opts SubmitOptions, progress PointProgress) ([]byte, bool, error) {
	// Queue-full rejections are flow control: back off until the queue has
	// room or the sweep fails. An admitted point is waited out even then —
	// its job runs regardless, and the result still lands in the cache and
	// the sweep's progress view.
	for {
		t, payload, err := e.s.submitWait(context.Background(), p.Spec, opts, progress.Started)
		if !errors.Is(err, ErrQueueFull) || progress.Ctx.Err() != nil {
			return payload, t.Cached, err
		}
		time.Sleep(queueFullRetry)
	}
}

// executor resolves the configured PointExecutor, defaulting to local
// execution.
func (s *Server) executor() PointExecutor {
	if s.cfg.Executor != nil {
		return s.cfg.Executor
	}
	return localExecutor{s}
}

// executorConcurrency resolves the dispatcher's in-flight point bound.
func (s *Server) executorConcurrency(exec PointExecutor) int {
	if c, ok := exec.(Concurrency); ok {
		if n := c.PointConcurrency(); n > 0 {
			return n
		}
	}
	return s.cfg.Workers
}
