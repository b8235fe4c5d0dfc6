package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// allWorkloads is every workload the command runs, including any that
// BENCHMARK.json leaves out.
var allWorkloads = []string{"kernel_large", "service_cold", "service_repeat", "sweep_fleet"}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func listed(b benchmarkFile, workload string) bool {
	for _, w := range b.Workloads {
		if w.Name == workload {
			return true
		}
	}
	return false
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runToy runs one workload at toy length and parses its last line.
func runToy(t *testing.T, workload string, trace bool, tamper func([]byte) []byte) (int, result, string) {
	t.Helper()
	opt := &options{workload: workload, seed: 7, seconds: 0.4, trace: trace, workdir: t.TempDir(), tamper: tamper}
	var out, errOut bytes.Buffer
	code := execute(opt, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s trace=%v: last line is not the result: %v\n%s%s", workload, trace, err, out.String(), errOut.String())
	}
	return code, r, out.String() + errOut.String()
}

func TestEveryMetricIsEmittedWithItsUnit(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, w := range allWorkloads {
		for _, trace := range []bool{false, true} {
			code, r, out := runToy(t, w, trace, nil)
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w, trace, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", w, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if r.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d", w, trace, r.Attempted)
			}
			if !listed(b, w) {
				// A workload left out of BENCHMARK.json is left out because
				// the program fails some of its ops; its run must still
				// report every metric, and says what failed.
				t.Logf("%s trace=%v: exit %d, %d of %d ops failed", w, trace, code, r.Failed, r.Attempted)
				continue
			}
			if code != 0 || !r.Correct || r.Failed != 0 {
				t.Errorf("%s trace=%v: exit %d, correct %v, failed %d\n%s", w, trace, code, r.Correct, r.Failed, out)
			}
		}
	}
}

func TestPerLayerTableMatchesBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the table %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s (%s), table %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the command %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i] {
			t.Errorf("end-to-end %d: BENCHMARK.json %s, command %s", i, m.Name, endToEnd[i])
		}
	}
}

// TestCorrectnessCheckTrips flips one byte of the benchmark's copy of each
// output before it is compared; the program's own bytes are untouched.
func TestCorrectnessCheckTrips(t *testing.T) {
	flip := func(b []byte) []byte {
		b[len(b)/2] ^= 1
		return b
	}
	for _, w := range allWorkloads {
		code, r, out := runToy(t, w, false, flip)
		if code == 0 || r.Correct || r.Failed == 0 {
			t.Errorf("%s: a flipped byte went unnoticed: exit %d, correct %v, failed %d\n%s", w, code, r.Correct, r.Failed, out)
		}
	}
}
