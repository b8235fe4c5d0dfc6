package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"mobilenet"
	"mobilenet/internal/scenario"
	"mobilenet/internal/simserve"
)

// captureStdout runs fn with os.Stdout redirected into a buffer. Not safe
// alongside parallel tests that print, so callers stay sequential.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		done <- data
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if ferr != nil {
		t.Fatalf("captured run failed: %v", ferr)
	}
	return out
}

// TestSeriesByteIdentityAcrossSurfaces is the PR's acceptance pin: for one
// observed broadcast scenario, the informed-count series is monotone
// non-decreasing and ends at the population size n=k, and the NDJSON bytes
// are identical across all three surfaces — the library
// (WriteSeriesNDJSON), the CLI (`mobisim -observe informed -series-out -`),
// and the service (GET /v1/results/{hash}/series).
func TestSeriesByteIdentityAcrossSurfaces(t *testing.T) {
	sc := mobilenet.Scenario{Engine: "broadcast", Nodes: 256, Agents: 8, Radius: 1, Seed: 3,
		Observe: &mobilenet.Observation{Observables: []string{"informed"}}}

	// Surface 1: the library.
	res, err := mobilenet.RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	var lib bytes.Buffer
	if err := res.WriteSeriesNDJSON(&lib); err != nil {
		t.Fatal(err)
	}

	// The acceptance shape: monotone informed counts ending at n.
	lines := strings.Split(strings.TrimRight(lib.String(), "\n"), "\n")
	prev := 0.0
	last := 0.0
	for _, line := range lines {
		var p struct {
			Name string  `json:"name"`
			Mean float64 `json:"mean"`
		}
		if err := json.Unmarshal([]byte(line), &p); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if p.Name != "informed" {
			t.Fatalf("unexpected observable %q", p.Name)
		}
		if p.Mean < prev {
			t.Fatalf("informed series not monotone: %v after %v", p.Mean, prev)
		}
		prev, last = p.Mean, p.Mean
	}
	if last != 8 {
		t.Fatalf("informed series ends at %v, want the full population 8", last)
	}

	// Surface 2: the CLI, -spec + -series-out -.
	specJSON, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	specPath := t.TempDir() + "/observed.json"
	if err := os.WriteFile(specPath, specJSON, 0o644); err != nil {
		t.Fatal(err)
	}
	cli := captureStdout(t, func() error {
		return run([]string{"-spec", specPath, "-series-out", "-"})
	})
	if !bytes.Equal(cli, lib.Bytes()) {
		t.Errorf("CLI series diverges from library:\nCLI:     %s\nlibrary: %s", cli, lib.Bytes())
	}

	// The flag-assembled path (no spec file) matches a library run of its
	// effective scenario too. Flag-assembled broadcasts inject the
	// historical "coverage" metric, which continues the run to T_C (a
	// longer series), so the reference run carries the same metric.
	flagged := sc
	flagged.Metrics = []string{"coverage"}
	flaggedRes, err := mobilenet.RunScenario(flagged)
	if err != nil {
		t.Fatal(err)
	}
	var flaggedLib bytes.Buffer
	if err := flaggedRes.WriteSeriesNDJSON(&flaggedLib); err != nil {
		t.Fatal(err)
	}
	cliFlags := captureStdout(t, func() error {
		return run([]string{"-n", "256", "-k", "8", "-r", "1", "-seed", "3",
			"-observe", "informed", "-series-out", "-"})
	})
	if !bytes.Equal(cliFlags, flaggedLib.Bytes()) {
		t.Errorf("flag-assembled CLI series diverges from library:\nCLI:     %s\nlibrary: %s", cliFlags, flaggedLib.Bytes())
	}

	// Surface 3: the simulation service.
	internalSpec, err := scenario.Parse(specJSON)
	if err != nil {
		t.Fatal(err)
	}
	srv := simserve.New(simserve.Config{Workers: 2})
	defer srv.Shutdown(context.Background())
	ticket, err := srv.Submit(internalSpec, simserve.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := srv.Wait(ctx, ticket.JobID); err != nil {
		t.Fatal(err)
	}
	served, ok, err := srv.Series(ticket.Hash)
	if !ok || err != nil {
		t.Fatalf("service series: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(served, lib.Bytes()) {
		t.Errorf("service series diverges from library:\nservice: %s\nlibrary: %s", served, lib.Bytes())
	}
}

// TestRunSeriesOutFiles exercises the tabular exports and the error paths
// of -series-out.
func TestRunSeriesOutFiles(t *testing.T) {
	dir := t.TempDir()
	for _, out := range []string{dir + "/series.csv", dir + "/series.json", dir + "/series.ndjson"} {
		if err := run([]string{"-n", "256", "-k", "8", "-observe", "informed,coverage",
			"-observe-every", "4", "-series-out", out}); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(out)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", out)
		}
	}
	data, err := os.ReadFile(dir + "/series.csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "observable,step,n,mean,ci95_low,ci95_high\n") {
		t.Errorf("series CSV header: %q", strings.SplitN(string(data), "\n", 2)[0])
	}
	// -series-out without observation fails loudly.
	if err := run([]string{"-n", "256", "-k", "8", "-series-out", dir + "/nope.csv"}); err == nil {
		t.Error("-series-out without -observe accepted")
	}
	// Cadence/cap flags without -observe fail loudly.
	if err := run([]string{"-n", "256", "-k", "8", "-observe-every", "4"}); err == nil {
		t.Error("-observe-every without -observe accepted")
	}
	// Unknown observable surfaces the obs validation error.
	if err := run([]string{"-n", "256", "-k", "8", "-observe", "velocity"}); err == nil {
		t.Error("unknown observable accepted")
	}
	// Stdout conflicts and non-scenario paths are rejected.
	for _, args := range [][]string{
		{"-n", "256", "-k", "8", "-observe", "informed", "-series-out", "-", "-json"},
		{"-n", "256", "-k", "8", "-observe", "informed", "-trace", dir + "/t.mtrace"},
		{"-sweep", dir + "/missing.json", "-observe", "informed"},
	} {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunObserveMeetingAndPredator covers the non-broadcast observable
// vocabularies through the CLI path.
func TestRunObserveMeetingAndPredator(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-model", "meeting", "-r", "4", "-reps", "4",
		"-observe", "meeting", "-series-out", dir + "/meeting.csv"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-n", "256", "-k", "8", "-model", "predator",
		"-observe", "informed", "-series-out", dir + "/pred.csv"}); err != nil {
		t.Fatal(err)
	}
}
