package experiments

import (
	"context"
	"fmt"
	"runtime"

	"mobilenet/internal/rng"
	"mobilenet/internal/sweep"
)

// repSeed derives the seed for replicate rep of a sweep point from the
// master seed. The derivation is position-based (not draw-based) so results
// are independent of scheduling and of how many other points run; it is
// shared with the simulation service via rng.DeriveSeed.
func repSeed(master uint64, point, rep int) uint64 {
	return rng.DeriveSeed(master, point, rep)
}

// runReps evaluates fn for reps replicates (passing each its deterministic
// seed) on sweep.Each's bounded pool, GOMAXPROCS wide, and returns the
// per-replicate values in replicate order. The first error stops the
// dispatch of further replicates (replicates already inside fn finish
// their call; fn takes no cancellation handle), and the error of the
// lowest-numbered failed replicate is returned.
func runReps(master uint64, point, reps int, fn func(seed uint64) (float64, error)) ([]float64, error) {
	if reps <= 0 {
		return nil, fmt.Errorf("experiments: reps must be positive, got %d", reps)
	}
	out := make([]float64, reps)
	err := sweep.Each(reps, runtime.GOMAXPROCS(0), func(_ context.Context, rep int) error {
		v, err := fn(repSeed(master, point, rep))
		out[rep] = v
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
