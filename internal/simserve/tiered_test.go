package simserve

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"mobilenet/internal/obs"
	"mobilenet/internal/scenario"
	"mobilenet/internal/store"
)

func testStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestTieredReadThrough pins the two-tier lookup: a key present only on
// disk is served and promoted into the LRU.
func TestTieredReadThrough(t *testing.T) {
	t.Parallel()
	st := testStore(t, t.TempDir())
	if err := st.Put("deep", []byte("from-disk")); err != nil {
		t.Fatal(err)
	}
	c := newTieredCache(4, st)
	defer c.Close()
	got, ok := c.Get("deep")
	if !ok || string(got) != "from-disk" {
		t.Fatalf("read-through Get = %q, %v", got, ok)
	}
	// Promoted: a memory hit now, visible as no further store hits.
	before := st.Stats().Hits
	if _, ok := c.Get("deep"); !ok {
		t.Fatal("promoted entry missing")
	}
	if st.Stats().Hits != before {
		t.Fatal("second Get went to disk; promotion failed")
	}
}

// TestTieredWriteBehind pins the spill path: a Put lands on disk after
// Flush, and survives the LRU evicting it.
func TestTieredWriteBehind(t *testing.T) {
	t.Parallel()
	st := testStore(t, t.TempDir())
	c := newTieredCache(2, st) // tiny LRU: 2 entries
	defer c.Close()
	for i := 0; i < 4; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("payload-%d", i)))
	}
	c.Flush()
	// k0 and k1 were evicted from memory; the disk tier still serves them.
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("k%d", i)
		got, ok := c.Get(key)
		if !ok || string(got) != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("Get(%s) after LRU eviction = %q, %v", key, got, ok)
		}
	}
	if st.Len() != 4 {
		t.Fatalf("disk tier holds %d entries, want 4", st.Len())
	}
}

// TestTieredQueuedSpillReadable pins the window between Put and the disk
// commit: an entry the LRU has already evicted while its spill still waits
// in the queue must be served from the queue, not reported missing.
func TestTieredQueuedSpillReadable(t *testing.T) {
	t.Parallel()
	st := testStore(t, t.TempDir())
	// No writer goroutine: every spill stays queued.
	c := &tieredCache{mem: newLRU(1), disk: st, writes: make(chan spillWrite, spillQueueDepth)}
	c.Put("a", []byte("payload-a"))
	c.Put("b", []byte("payload-b")) // evicts a from the 1-entry LRU
	got, ok := c.Get("a")
	if !ok || string(got) != "payload-a" {
		t.Fatalf("Get(a) with its spill queued = %q, %v", got, ok)
	}
}

// TestTieredConcurrentSpills drives Put and Get from several goroutines
// against a live writer and a 1-entry LRU, so queued spills are held,
// read and released concurrently: every key stays readable throughout,
// and nothing is left pending once the queue drains.
func TestTieredConcurrentSpills(t *testing.T) {
	t.Parallel()
	st := testStore(t, t.TempDir())
	c := newTieredCache(1, st)
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("g%d-%d", g, i%10)
				c.Put(key, []byte(key))
				if got, ok := c.Get(key); !ok || string(got) != key {
					t.Errorf("Get(%s) = %q, %v", key, got, ok)
				}
			}
		}(g)
	}
	wg.Wait()
	c.Flush()
	c.pendingMu.Lock()
	defer c.pendingMu.Unlock()
	if len(c.pending) != 0 {
		t.Errorf("%d spills still pending after Flush", len(c.pending))
	}
}

// TestTieredNilStoreDegrades pins the memory-only posture: without a disk
// tier the cache is exactly the old LRU.
func TestTieredNilStoreDegrades(t *testing.T) {
	t.Parallel()
	c := newTieredCache(2, nil)
	defer c.Close()
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	c.Put("c", []byte("3")) // evicts a
	if _, ok := c.Get("a"); ok {
		t.Fatal("evicted entry served with no disk tier")
	}
	if got, ok := c.Get("c"); !ok || string(got) != "3" {
		t.Fatalf("Get(c) = %q, %v", got, ok)
	}
	c.Flush() // no-ops must not panic
}

// TestTieredPutAfterClose pins the straggler path: a Put after Close
// commits inline instead of racing the closed queue.
func TestTieredPutAfterClose(t *testing.T) {
	t.Parallel()
	st := testStore(t, t.TempDir())
	c := newTieredCache(4, st)
	c.Close()
	c.Put("late", []byte("straggler"))
	if got, ok := st.Get("late"); !ok || string(got) != "straggler" {
		t.Fatalf("straggler write lost: %q, %v", got, ok)
	}
	c.Flush() // after Close: must return immediately
	c.Close() // double Close: must not panic
}

// TestServerRestartServesFromStore is the service-level durability pin
// demanded by the issue: a result computed before a daemon restart is
// served after it — byte-identical, without re-running the simulation —
// because the disk store survives where the LRU did not.
func TestServerRestartServesFromStore(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	spec := scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: 256, Agents: 8,
		Radius: 1, Seed: 77, Metrics: []string{scenario.MetricCurve}}

	st := testStore(t, dir)
	s1 := New(Config{Workers: 2, Store: st})
	ticket, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	payload, err := s1.Wait(ctx, ticket.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh server over a fresh LRU, same store directory.
	s2 := New(Config{Workers: 2, Store: testStore(t, dir)})
	defer s2.Shutdown(context.Background())
	ticket2, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !ticket2.Cached {
		t.Fatalf("restarted server re-ran the job: ticket %+v", ticket2)
	}
	got, ok := s2.Result(ticket2.Hash)
	if !ok {
		t.Fatal("result not fetchable after restart")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload not byte-identical across restart: %d vs %d bytes", len(got), len(payload))
	}
}

// TestSeriesSpillsToStore pins that hash#series NDJSON renderings ride the
// spill tier too: a series rendered before restart is served from disk
// after it without re-rendering from the result.
func TestSeriesSpillsToStore(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	spec := scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: 256, Agents: 8,
		Radius: 1, Seed: 78, Metrics: []string{scenario.MetricCurve},
		Observe: &obs.Spec{Observables: []string{obs.Informed}}}

	s1 := New(Config{Workers: 2, Store: testStore(t, dir)})
	ticket, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s1.Wait(ctx, ticket.JobID); err != nil {
		t.Fatal(err)
	}
	series1, ok, err := s1.Series(ticket.Hash)
	if err != nil || !ok {
		t.Fatalf("Series before restart: %v, %v", ok, err)
	}
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	st2 := testStore(t, dir)
	if _, ok := st2.Get(ticket.Hash + seriesSuffix); !ok {
		t.Fatal("series rendering did not spill to disk")
	}
	s2 := New(Config{Workers: 2, Store: st2})
	defer s2.Shutdown(context.Background())
	series2, ok, err := s2.Series(ticket.Hash)
	if err != nil || !ok {
		t.Fatalf("Series after restart: %v, %v", ok, err)
	}
	if !bytes.Equal(series1, series2) {
		t.Fatal("series not byte-identical across restart")
	}
}

// TestStoreMetricsExposed pins the store telemetry families' presence (and
// absence without a store — the golden exposition test covers that side).
func TestStoreMetricsExposed(t *testing.T) {
	t.Parallel()
	s, ts := testServer(t, Config{Workers: 1, Store: testStore(t, t.TempDir())})
	_ = s
	body, code := getBody(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	for _, want := range []string{
		"mobiserved_store_entries", "mobiserved_store_bytes",
		"mobiserved_store_hits_total", "mobiserved_store_misses_total",
		"mobiserved_store_evictions_total", "mobiserved_store_corrupt_total",
		"mobiserved_store_write_errors_total", "mobiserved_store_dropped_writes_total",
		"# TYPE mobiserved_store_hits_total counter",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("metrics body missing %q", want)
		}
	}
}
