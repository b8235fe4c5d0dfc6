package simserve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"mobilenet/internal/chaos"
	"mobilenet/internal/scenario"
)

// postWait POSTs spec to /v1/run with the given wait query value and
// returns the response with its body read.
func postWait(t *testing.T, ts *httptest.Server, spec scenario.Spec, wait string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/run?wait="+wait, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestRunWaitServesResultBytes pins the blocking run: its 200 body is
// byte-identical to GET /v1/results/{hash} whether the submission ran
// cold, hit the cache, or coalesced onto a job another request started —
// and the headers name the hash and whether it was a cache hit.
func TestRunWaitServesResultBytes(t *testing.T) {
	t.Parallel()
	// Every engine poll stalls 5ms, so a job is reliably still running
	// when the coalescing request arrives.
	s, ts := testServer(t, Config{Workers: 2, Chaos: mustParseChaos(t, chaos.SlowStep+":1:5ms")})
	check := func(name string, spec scenario.Spec, wait string, wantCached bool) {
		t.Helper()
		resp, body := postWait(t, ts, spec, wait)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, body)
		}
		hash := resp.Header.Get(ResultHashHeader)
		if got := resp.Header.Get(ResultCachedHeader); got != strconv.FormatBool(wantCached) {
			t.Errorf("%s: %s = %q, want %v", name, ResultCachedHeader, got, wantCached)
		}
		want, code := getBody(t, ts.URL+"/v1/results/"+hash)
		if code != http.StatusOK || !bytes.Equal(body, want) {
			t.Errorf("%s: wait body differs from /v1/results/%s (status %d)", name, hash, code)
		}
	}

	check("cold", fastSpec(21), "2000", false)
	check("cached", fastSpec(21), "2000", true)

	// wait=0 returns the ticket at once (202); the next blocking request
	// coalesces onto that job instead of starting another.
	resp, body := postWait(t, ts, fastSpec(22), "0")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("wait=0 status %d: %s", resp.StatusCode, body)
	}
	var ticket Ticket
	if err := json.Unmarshal(body, &ticket); err != nil || ticket.JobID == "" {
		t.Fatalf("wait=0 body %s is not a job ticket (%v)", body, err)
	}
	check("coalesced", fastSpec(22), "2000", false)
	if misses := s.cacheMisses.Load(); misses != 2 {
		t.Errorf("%d jobs created for two distinct specs; the blocking request did not coalesce", misses)
	}
}

// TestRunWaitErrors pins the blocking run's failure answers: a failed job
// is a 4xx carrying the job's message, a malformed wait a 400.
func TestRunWaitErrors(t *testing.T) {
	t.Parallel()
	_, ts := testServer(t, Config{Workers: 1, Chaos: mustParseChaos(t, chaos.WorkerPanic+":1x1")})
	resp, body := postWait(t, ts, fastSpec(31), "2000")
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "panic in replicate") {
		t.Errorf("failed job answered %d %s, want 422 naming the panic", resp.StatusCode, body)
	}
	for _, wait := range []string{"soon", "-1", "1.5", ""} {
		if resp, body := postWait(t, ts, fastSpec(32), wait); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("wait=%q answered %d %s, want 400", wait, resp.StatusCode, body)
		}
	}
}

// TestRunWaitStagesReachRecorder pins the slow-log data path for blocking
// runs: a request that saw its job finish carries the job's queue-wait,
// execute and assemble stages alongside its own admission time.
func TestRunWaitStagesReachRecorder(t *testing.T) {
	t.Parallel()
	s, _ := testServer(t, Config{Workers: 2})
	body, _ := json.Marshal(fastSpec(41))
	rec := NewStageRecorder()
	req := httptest.NewRequest("POST", "/v1/run?wait=2000", bytes.NewReader(body))
	req = req.WithContext(WithStageRecorder(req.Context(), rec))
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("blocking run status = %d: %s", rr.Code, rr.Body)
	}
	stages := rec.Stages()
	for _, stage := range []string{stageAdmission, stageQueueWait, stageExecute, stageAssemble} {
		if stages[stage] <= 0 {
			t.Errorf("stage %q missing from the blocking run's breakdown: %v", stage, stages)
		}
	}
}
