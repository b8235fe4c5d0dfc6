package scenario

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzScenarioSpec drives arbitrary bytes through Parse and Canonical —
// the path every POST /v1/run body takes — and checks the properties the
// content hash rests on: the canonical form is a fixed point byte for
// byte, it survives a JSON round trip with its hash intact, and the
// execution-only fields (label, parallelism, profile) never split the
// hash.
func FuzzScenarioSpec(f *testing.F) {
	f.Add([]byte(`{"engine":"broadcast","nodes":1024,"agents":16,"radius":1,"seed":2011,"source":-1,"metrics":["curve","coverage"]}`))
	f.Add([]byte(`{"engine":"gossip","nodes":256,"agents":8,"radius":2,"seed":5,"rumors":3,"reps":2}`))
	f.Add([]byte(`{"engine":"frog","nodes":400,"agents":10,"seed":3,"mobility":"levy:alpha=1.6","observe":{"observables":["informed","components"],"every":2,"max_points":16}}`))
	f.Add([]byte(`{"engine":"coverage","nodes":100,"agents":4,"radius":3,"seed":1,"metrics":["curve"],"observe":{"observables":["coverage"]}}`))
	f.Add([]byte(`{"engine":"predator","nodes":256,"agents":4,"radius":1,"seed":7,"preys":12,"max_steps":500}`))
	f.Add([]byte(`{"engine":"meeting","nodes":1,"agents":1,"radius":4,"seed":9,"reps":3,"mobility":"lazy"}`))
	f.Add([]byte(`{"engine":"meeting","nodes":1,"agents":1,"radius":9000000000000000000,"max_steps":10}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Parse(data)
		if err != nil {
			return
		}
		c, err := sp.Canonical()
		if err != nil {
			return
		}
		want, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		cc, err := c.Canonical()
		if err != nil {
			t.Fatalf("canonical form %s fails validation: %v", want, err)
		}
		got, err := json.Marshal(cc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Canonical is not a fixed point:\nonce:  %s\ntwice: %s", want, got)
		}
		hash, err := HashCanonical(c)
		if err != nil {
			t.Fatal(err)
		}
		reparsed, err := Parse(want)
		if err != nil {
			t.Fatalf("canonical encoding %s does not re-parse: %v", want, err)
		}
		if h, err := reparsed.Hash(); err != nil || h != hash {
			t.Fatalf("re-parsed canonical form hashes to %q (%v), want %q", h, err, hash)
		}
		exec := sp
		exec.Label = "fuzz-" + sp.Label
		exec.Parallelism = sp.Parallelism + 3
		exec.Profile = !sp.Profile
		if h, err := exec.Hash(); err != nil || h != hash {
			t.Fatalf("execution-only fields split the hash: %q (%v), want %q", h, err, hash)
		}
	})
}
