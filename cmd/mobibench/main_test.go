package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
)

func TestRunRejectsBadFlags(t *testing.T) {
	t.Parallel()
	for _, args := range [][]string{
		{"-c", "0"},
		{"-d", "0s"},
		{"-nodes", "1"},
		{"-agents", "0"},
		{"-workloads", "cold,warmish"},
		{"-workloads", ","},
		{"-definitely-not-a-flag"},
	} {
		if err := run(args, os.Stdout); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestNormalizeAddr checks that -addr accepts a bare host:port as well as
// a base URL, with or without a trailing slash.
func TestNormalizeAddr(t *testing.T) {
	t.Parallel()
	for in, want := range map[string]string{
		"localhost:8080":         "http://localhost:8080",
		"127.0.0.1:18080":        "http://127.0.0.1:18080",
		"http://localhost:8080":  "http://localhost:8080",
		"http://localhost:8080/": "http://localhost:8080",
		"https://bench.example":  "https://bench.example",
	} {
		if got := newClient(in, 1).Addr(); got != want {
			t.Errorf("newClient(%q).Addr() = %q, want %q", in, got, want)
		}
	}
}

// TestSmoke is the CI entry point's twin: the full in-process bench at
// smoke scale, every default workload phase exercised and validated.
func TestSmoke(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	if err := run([]string{"-smoke"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "schema ok") {
		t.Errorf("smoke output missing validation line:\n%s", out.String())
	}
}

// TestDistributedWorkloadsSmoke drives the fleet workload at smoke scale:
// it boots its own two-worker fleet behind a coordinator and must produce
// a valid, error-free phase.
func TestDistributedWorkloadsSmoke(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	if err := run([]string{"-smoke", "-workloads", "fleet"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "schema ok") {
		t.Errorf("smoke output missing validation line:\n%s", out.String())
	}
}

func TestValidateReport(t *testing.T) {
	t.Parallel()
	good := func() map[string]WorkloadResult {
		return map[string]WorkloadResult{"cold": {Requests: 10, ThroughputRPS: 5, P50: 1, P99: 2}}
	}
	if err := validateReport(good(), []string{"cold"}); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	for name, breakIt := range map[string]func(map[string]WorkloadResult){
		"missing workload":   func(r map[string]WorkloadResult) { delete(r, "cold") },
		"zero requests":      func(r map[string]WorkloadResult) { r["cold"] = WorkloadResult{} },
		"errors":             func(r map[string]WorkloadResult) { w := r["cold"]; w.Errors = 1; r["cold"] = w },
		"inverted quantiles": func(r map[string]WorkloadResult) { w := r["cold"]; w.P50, w.P99 = 5, 1; r["cold"] = w },
	} {
		r := good()
		breakIt(r)
		if err := validateReport(r, []string{"cold"}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// chaos alone may lose up to chaosErrorBudget (20%) of its requests.
	chaos := map[string]WorkloadResult{"chaos": {Requests: 8, Errors: 2, ThroughputRPS: 5, P50: 1, P99: 2}}
	if err := validateReport(chaos, []string{"chaos"}); err != nil {
		t.Errorf("chaos within its error budget rejected: %v", err)
	}
	chaos["chaos"] = WorkloadResult{Requests: 7, Errors: 3, ThroughputRPS: 5, P50: 1, P99: 2}
	if err := validateReport(chaos, []string{"chaos"}); err == nil {
		t.Error("chaos over its error budget accepted")
	}
}

// TestRequestErrorFailsRun drives run end to end against a server that
// fails every other scenario run with 422 (a failed job): the workload
// still completes requests, but the zero-error gate must make run fail.
func TestRequestErrorFailsRun(t *testing.T) {
	t.Parallel()
	var runs atomic.Uint64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/healthz":
			w.WriteHeader(http.StatusOK)
		case r.Method == http.MethodPost && r.URL.Path == "/v1/run":
			if runs.Add(1)%2 == 0 {
				http.Error(w, "job failed: injected", http.StatusUnprocessableEntity)
				return
			}
			w.Write([]byte(`{}`))
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	var out bytes.Buffer
	err := run([]string{"-addr", srv.URL, "-workloads", "cold", "-c", "2", "-d", "100ms"}, &out)
	if err == nil || !strings.Contains(err.Error(), "errors") {
		t.Fatalf("run = %v, want the zero-error gate to fail it\n%s", err, out.String())
	}
	if runs.Load() < 2 {
		t.Fatalf("server saw %d runs; the 422 path was never exercised", runs.Load())
	}
}
