package sweep

import (
	"encoding/json"
	"testing"
)

// FuzzSweepSpec drives arbitrary bytes through Parse and Expand — the path
// every POST /v1/sweeps body takes — and checks the properties the sweep
// hash rests on: expansion stays within MaxPoints, the hash ignores the
// order of the point set, and it survives a JSON round trip of the spec.
func FuzzSweepSpec(f *testing.F) {
	f.Add([]byte(`{"base":{"engine":"broadcast","nodes":1024,"agents":16,"radius":1,"seed":1},"axes":[{"field":"agents","values":[4,16,64]}],"fit":"agents"}`))
	f.Add([]byte(`{"base":{"engine":"broadcast","nodes":256,"agents":4,"seed":1},"axes":[{"field":"seed","from":1,"to":6,"step":1},{"field":"radius","values":[0,1,2]}]}`))
	f.Add([]byte(`{"base":{"engine":"gossip","nodes":256,"agents":8,"rumors":2},"axes":[{"field":"agents","values":[4,8]},{"field":"seed","values":[1,2]}],"mode":"zip"}`))
	f.Add([]byte(`{"label":"mob","base":{"engine":"coverage","nodes":100,"agents":4,"radius":1},"axes":[{"field":"mobility","values":["lazy","levy:alpha=1.6"]},{"field":"seed","values":[3,3]}]}`))
	f.Add([]byte(`{"base":{"engine":"broadcast","nodes":64,"agents":2},"axes":[{"field":"seed","from":0,"to":9223372036854775807,"step":1}]}`))
	f.Add([]byte(`{"base":{"engine":"frog","nodes":400,"agents":10,"observe":{"observables":["informed"]}},"axes":[{"field":"reps","values":[1,2]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Parse(data)
		if err != nil {
			return
		}
		points, err := sp.Expand()
		if err != nil {
			return
		}
		if len(points) > MaxPoints {
			t.Fatalf("expanded to %d points, over MaxPoints %d", len(points), MaxPoints)
		}
		hash := HashPoints(points)
		// Reverse, then rotate by an input-dependent offset.
		permuted := make([]Point, len(points))
		for i, p := range points {
			permuted[(len(points)-1-i+len(data))%len(points)] = p
		}
		if h := HashPoints(permuted); h != hash {
			t.Fatalf("permuted point set hashes to %q, want %q", h, hash)
		}
		enc, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		reparsed, err := Parse(enc)
		if err != nil {
			t.Fatalf("encoding %s does not re-parse: %v", enc, err)
		}
		if h, err := reparsed.Hash(); err != nil || h != hash {
			t.Fatalf("re-parsed %s hashes to %q (%v), want %q", enc, h, err, hash)
		}
	})
}
