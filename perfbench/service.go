package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mobilenet/internal/prof"
	"mobilenet/internal/scenario"
	"mobilenet/internal/simserve"
	"mobilenet/internal/store"
)

// Service workload sizes: the service's real traffic size.
const (
	serviceNodes  = 1024
	serviceAgents = 16

	// service_repeat: a pool larger than the LRU, drawn with a Zipf skew,
	// plus a fixed share of fresh specs that miss and spill write-behind.
	// About a third of ops are LRU hits, close to half disk hits and a
	// fifth misses, so the median falls inside the disk hits and the 90th
	// percentile inside the misses, never on the edge between two kinds
	// of op.
	repeatPool       = 64
	repeatLRU        = 8
	repeatZipfS      = 1.2
	repeatFreshShare = 0.2
	storeCap         = 1 << 30

	// requestBudget bounds one op end to end; a wedged server fails the op
	// instead of hanging the benchmark.
	requestBudget = 30 * time.Second
	// pollInterval paces job and sweep polls, well under a cold run's
	// execution time.
	pollInterval = 300 * time.Microsecond
	// probeSpecs is how many of a workload's distinct specs the traced
	// run feeds to its direct calls into scenario, core and store.
	probeSpecs = 24
)

func coldSpec(seed uint64) []byte {
	return []byte(fmt.Sprintf(`{"engine":"broadcast","nodes":%d,"agents":%d,"reps":1,"seed":%d}`,
		serviceNodes, serviceAgents, seed))
}

func curveSpec(seed uint64) []byte {
	return []byte(fmt.Sprintf(`{"engine":"broadcast","nodes":%d,"agents":%d,"reps":1,"seed":%d,"metrics":["curve"]}`,
		serviceNodes, serviceAgents, seed))
}

// zipfCDF is the cumulative Zipf(repeatZipfS) distribution over the pool.
var zipfCDF = func() []float64 {
	cdf := make([]float64, repeatPool)
	var sum float64
	for j := range cdf {
		sum += math.Pow(float64(j+1), -repeatZipfS)
		cdf[j] = sum
	}
	for j := range cdf {
		cdf[j] /= sum
	}
	cdf[len(cdf)-1] = 1
	return cdf
}()

// service is one in-process simserve.Server behind a loopback listener,
// wired as cmd/mobiserved wires it, with a client pointed at it.
type service struct {
	svc    *simserve.Server
	hs     *http.Server
	cl     *client
	served chan struct{}
}

// startService starts a server and returns once /healthz answers 200.
// prepare, when non-nil, sees the server before it serves, to register
// telemetry the way the daemon does.
func startService(cfg simserve.Config, prepare func(*simserve.Server)) (*service, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{svc: simserve.New(cfg), served: make(chan struct{})}
	if prepare != nil {
		prepare(s.svc)
	}
	s.hs = &http.Server{Handler: s.svc}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(l) // always ErrServerClosed after stop
	}()
	s.cl = newClient("http://" + l.Addr().String())
	if err := s.cl.waitHealthy(); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop shuts the listener and then the server down, and waits for both.
func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// A drain that overruns only means stragglers were cancelled; nothing
	// the benchmark reports depends on it.
	_ = s.hs.Shutdown(ctx)
	<-s.served
	_ = s.svc.Shutdown(ctx)
	s.cl.hc.CloseIdleConnections()
}

// client speaks the service's HTTP API. With tr set, each round trip is a
// span on the calling client's lane.
type client struct {
	base string
	hc   *http.Client
	tr   *prof.Trace
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   requestBudget,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients},
	}}
}

func (c *client) waitHealthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, _, err := c.call(0, http.MethodGet, "/healthz", "", nil)
		if err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy", c.base)
		}
		time.Sleep(time.Millisecond)
	}
}

// call makes one round trip and returns the status and body. span names
// the route for the trace (never the raw path, whose ids are unbounded).
func (c *client) call(tid int64, method, path, span string, body []byte) (int, []byte, error) {
	t0 := time.Now()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if c.tr != nil && span != "" && c.tr.Len() < maxSpans {
		c.tr.Add(span, "http", tid, t0, time.Since(t0), nil)
	}
	return resp.StatusCode, data, err
}

var errTimeout = errors.New("op exceeded the request budget")

// poll GETs path until done reports true, pausing pollInterval between
// polls, and returns the last body and the number of polls.
func (c *client) poll(tid int64, path, span string, done func([]byte) (bool, error)) ([]byte, int, error) {
	deadline := time.Now().Add(requestBudget)
	for polls := 1; ; polls++ {
		status, body, err := c.call(tid, http.MethodGet, path, span, nil)
		if err != nil {
			return nil, polls, err
		}
		if status != http.StatusOK {
			return nil, polls, fmt.Errorf("GET %s: status %d: %.200s", path, status, body)
		}
		ok, err := done(body)
		if err != nil || ok {
			return body, polls, err
		}
		if time.Now().After(deadline) {
			return nil, polls, errTimeout
		}
		time.Sleep(pollInterval)
	}
}

// runScenario is one service op: POST /v1/run, poll the job until it is
// done (a cached answer needs no polls), then GET the result. It returns
// the payload and the number of polls.
func (c *client) runScenario(tid int64, spec []byte) ([]byte, int, error) {
	t0 := time.Now()
	status, body, err := c.call(tid, http.MethodPost, "/v1/run", "POST /v1/run", spec)
	if err != nil {
		return nil, 0, err
	}
	if status != http.StatusOK && status != http.StatusAccepted {
		return nil, 0, fmt.Errorf("POST /v1/run: status %d: %.200s", status, body)
	}
	var t simserve.Ticket
	if err := json.Unmarshal(body, &t); err != nil {
		return nil, 0, err
	}
	polls := 0
	if !t.Cached {
		_, polls, err = c.poll(tid, "/v1/jobs/"+t.JobID, "GET /v1/jobs/{id}", func(b []byte) (bool, error) {
			var v simserve.JobView
			if err := json.Unmarshal(b, &v); err != nil {
				return false, err
			}
			switch v.Status {
			case simserve.StatusDone:
				return true, nil
			case simserve.StatusFailed, simserve.StatusCancelled:
				return false, fmt.Errorf("job %s %s: %s", v.JobID, v.Status, v.Error)
			}
			return false, nil
		})
		if err != nil {
			return nil, polls, err
		}
	}
	status, payload, err := c.call(tid, http.MethodGet, "/v1/results/"+t.Hash, "GET /v1/results/{hash}", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET /v1/results: status %d", status)
	}
	if c.tr != nil && c.tr.Len() < maxSpans {
		c.tr.Add("op", "op", tid, t0, time.Since(t0), map[string]string{"hash": t.Hash})
	}
	return payload, polls, err
}

// comparatorInput is the benchmark's copy of an output as the check sees
// it: the output itself, or with tamper set a corrupted copy.
func (opt *options) comparatorInput(got []byte) []byte {
	if opt.tamper == nil {
		return got
	}
	return opt.tamper(append([]byte(nil), got...))
}

// check compares an output with its reference byte for byte.
func check(opt *options, got, want []byte) error {
	if got = opt.comparatorInput(got); !bytes.Equal(got, want) {
		return fmt.Errorf("output differs from its reference (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}

// scenarioRef is the reference payload of a scenario spec: the library
// run, encoded the way the service encodes results.
func scenarioRef(spec []byte) ([]byte, error) {
	s, err := scenario.Parse(spec)
	if err != nil {
		return nil, err
	}
	res, err := scenario.Run(s)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// pendingChecks holds, by op index, the SHA-256 of each output whose
// reference is computed after the window. Keeping digests rather than
// payloads keeps the check's memory out of rss_peak_mb.
type pendingChecks struct {
	mu  sync.Mutex
	out map[uint64][sha256.Size]byte
}

func (p *pendingChecks) add(opt *options, i uint64, payload []byte) {
	sum := sha256.Sum256(opt.comparatorInput(payload))
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.out == nil {
		p.out = make(map[uint64][sha256.Size]byte)
	}
	p.out[i] = sum
}

// verify computes the reference of every pending output on clients
// goroutines, outside any timed window, and marks mismatching ops failed
// in the window that ran them. A reference that cannot be computed is a
// harness error, not a failed op.
func (p *pendingChecks) verify(opt *options, spec func(uint64) []byte, ref func([]byte) ([]byte, error), ws ...*window) error {
	idx := make([]uint64, 0, len(p.out))
	for i := range p.out {
		idx = append(idx, i)
	}
	sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	var (
		next  atomic.Int64
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(idx) {
					return
				}
				i := idx[k]
				want, err := ref(spec(i))
				mu.Lock()
				switch {
				case err != nil:
					if first == nil {
						first = fmt.Errorf("reference for op %d: %w", i, err)
					}
				case p.out[i] != sha256.Sum256(want):
					for _, w := range ws {
						if i >= w.first && i < w.first+uint64(len(w.ops)) {
							w.fail(i, fmt.Errorf("op %d: output differs from its reference", i))
						}
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return first
}

func runServiceCold(opt *options, rep *report) error {
	cfg := simserve.Config{DefaultDeadline: requestBudget}
	setup, srv, err := medianSetup(setupReps, func() (*service, error) { return startService(cfg, nil) }, (*service).stop)
	if err != nil {
		return err
	}
	defer srv.stop()
	rep.set("setup_s", "s", setupReps, setup)
	spec := func(i uint64) []byte { return coldSpec(derive(opt.seed, streamUnique, i)) }
	return measureService(opt, rep, srv, spec, nil)
}

func runServiceRepeat(opt *options, rep *report) error {
	pool := make([][]byte, repeatPool)
	known := make(map[string][]byte, repeatPool)
	for j := range pool {
		pool[j] = curveSpec(derive(opt.seed, streamPool, uint64(j)))
		want, err := scenarioRef(pool[j])
		if err != nil {
			return err
		}
		known[string(pool[j])] = want
	}
	dir := filepath.Join(opt.scratch, "store")
	start := func() (*service, error) {
		st, err := store.Open(dir, storeCap)
		if err != nil {
			return nil, err
		}
		return startService(simserve.Config{Store: st, CacheEntries: repeatLRU, DefaultDeadline: requestBudget}, nil)
	}
	// Pre-warm: a first server computes the whole pool; its shutdown
	// flushes the write-behind queue, so the store holds every pool spec.
	warm, err := start()
	if err != nil {
		return err
	}
	for _, s := range pool {
		got, _, err := warm.cl.runScenario(0, s)
		if err == nil {
			err = check(&options{}, got, known[string(s)])
		}
		if err != nil {
			warm.stop()
			return fmt.Errorf("pre-warm: %w", err)
		}
	}
	warm.stop()

	// The timed setup restarts the server over the populated store.
	setup, srv, err := medianSetup(setupReps, start, (*service).stop)
	if err != nil {
		return err
	}
	defer srv.stop()
	rep.set("setup_s", "s", setupReps, setup)
	spec := func(i uint64) []byte {
		if unit(derive(opt.seed, streamDraw, i)) < repeatFreshShare {
			return curveSpec(derive(opt.seed, streamUnique, i))
		}
		return pool[sort.SearchFloat64s(zipfCDF, unit(derive(opt.seed, streamPick, i)))]
	}
	return measureService(opt, rep, srv, spec, known)
}

// measureService runs a service workload against srv and checks every
// payload: against known (references computed before the window) inline,
// and against references computed after the window otherwise.
func measureService(opt *options, rep *report, srv *service, spec func(uint64) []byte, known map[string][]byte) error {
	var (
		pending pendingChecks
		polls   atomic.Int64
	)
	op := func(c int, i uint64) error {
		s := spec(i)
		payload, n, err := srv.cl.runScenario(int64(c), s)
		polls.Add(int64(n))
		if err != nil {
			return err
		}
		if want, ok := known[string(s)]; ok {
			return check(opt, payload, want)
		}
		pending.add(opt, i, payload)
		return nil
	}
	tr := newClientTrace()
	var (
		before, after scrape
		tracedPolls   int64
	)
	run, err := runLoad(opt, op, func(on bool) error {
		var err error
		if on {
			before, err = scrapeMetrics(srv.cl.hc, srv.cl.base)
			polls.Store(0)
			srv.cl.tr = tr
			return err
		}
		srv.cl.tr = nil
		tracedPolls = polls.Load()
		after, err = scrapeMetrics(srv.cl.hc, srv.cl.base)
		return err
	})
	if err != nil {
		return err
	}
	rep.setPeakRSS()
	if err := pending.verify(opt, spec, scenarioRef, run.all...); err != nil {
		return err
	}
	if !run.finish(rep) {
		return nil
	}
	serviceLayers(rep, delta{before, after}, run.traced, float64(tracedPolls))

	var probe [][]byte
	seen := make(map[string]bool)
	for i := uint64(0); len(probe) < probeSpecs && i < run.next; i++ {
		if s := spec(i); !seen[string(s)] {
			seen[string(s)] = true
			probe = append(probe, s)
		}
	}
	if err := probeLayers(opt, rep, tr, probe); err != nil {
		return err
	}
	return writeTrace(opt, rep, tr)
}

// newClientTrace returns a trace with one named lane per client.
func newClientTrace() *prof.Trace {
	tr := prof.NewTrace()
	for c := 0; c < clients; c++ {
		tr.NameThread(int64(c), fmt.Sprintf("client %d", c))
	}
	return tr
}
