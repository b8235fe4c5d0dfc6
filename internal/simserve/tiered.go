package simserve

import (
	"sync"
	"sync/atomic"

	"mobilenet/internal/store"
)

// tieredCache layers the in-memory LRU over an optional disk-backed
// content-addressed store (internal/store). Reads are read-through: a
// memory miss probes the disk tier and promotes a hit back into the LRU,
// so a restarted daemon re-warms its hot set on demand instead of
// re-running simulations. Writes are write-behind: the LRU insert is
// synchronous (the next identical submission must hit), while the disk
// commit — an fsync — rides a bounded queue drained by one writer
// goroutine, so a slow disk never stalls the worker that just finished a
// replicate. A queued spill stays readable until the writer has committed
// it, so an LRU eviction in between cannot hide a finished result from
// both tiers. When the queue is full the disk write is dropped and
// counted: exactly the flaky-cache-backend posture the chaos harness
// already pins — correctness never depends on a cache write landing.
//
// With no disk tier (disk == nil) every method degrades to the plain LRU,
// costing one nil check — the pre-store behaviour, byte for byte.
type tieredCache struct {
	mem  *lru
	disk *store.Store

	writes        chan spillWrite
	writerWG      sync.WaitGroup
	sendMu        sync.RWMutex // guards writes against Close
	closed        bool         // under sendMu
	droppedWrites atomic.Uint64

	pendingMu sync.Mutex
	pending   map[string]pendingSpill // queued spills the writer has not committed
}

// pendingSpill is a queued payload and the number of queued writes of its
// key (a key can be queued again before its first commit lands).
type pendingSpill struct {
	payload []byte
	n       int
}

// spillWrite is one queued disk commit; a nil-payload entry with ack set
// is a flush barrier (the writer closes ack when it reaches it).
type spillWrite struct {
	key     string
	payload []byte
	ack     chan struct{}
}

// spillQueueDepth bounds pending disk commits. Payloads are typically a
// few KB; at the default bound the queue holds well under the default
// LRU's worth of bytes, and a full queue sheds to the
// dropped-writes counter rather than blocking workers.
const spillQueueDepth = 256

func newTieredCache(capacity int, disk *store.Store) *tieredCache {
	c := &tieredCache{mem: newLRU(capacity), disk: disk}
	if disk != nil {
		c.writes = make(chan spillWrite, spillQueueDepth)
		c.writerWG.Add(1)
		go c.writer()
	}
	return c
}

func (c *tieredCache) writer() {
	defer c.writerWG.Done()
	for w := range c.writes {
		if w.ack != nil {
			close(w.ack)
			continue
		}
		// A failed commit already counted in the store's WriteErrors; the
		// entry is simply absent and the next identical submission re-runs.
		_ = c.disk.Put(w.key, w.payload)
		c.release(w.key)
	}
}

// hold marks a spill of key as queued, readable through Get until release.
func (c *tieredCache) hold(key string, payload []byte) {
	c.pendingMu.Lock()
	defer c.pendingMu.Unlock()
	if c.pending == nil {
		c.pending = make(map[string]pendingSpill)
	}
	c.pending[key] = pendingSpill{payload: payload, n: c.pending[key].n + 1}
}

// release ends one queued spill of key: committed, failed or dropped.
func (c *tieredCache) release(key string) {
	c.pendingMu.Lock()
	defer c.pendingMu.Unlock()
	if p := c.pending[key]; p.n > 1 {
		c.pending[key] = pendingSpill{payload: p.payload, n: p.n - 1}
	} else {
		delete(c.pending, key)
	}
}

// queued returns the payload of a spill still waiting for the writer.
func (c *tieredCache) queued(key string) ([]byte, bool) {
	c.pendingMu.Lock()
	defer c.pendingMu.Unlock()
	p, ok := c.pending[key]
	return p.payload, ok
}

// Get probes memory first, then the queued spills, then the disk tier; a
// hit below memory is promoted into the LRU so the next fetch is a memory
// hit.
func (c *tieredCache) Get(key string) ([]byte, bool) {
	if payload, ok := c.mem.Get(key); ok {
		return payload, true
	}
	if c.disk == nil {
		return nil, false
	}
	payload, ok := c.queued(key)
	if !ok {
		payload, ok = c.disk.Get(key)
	}
	if !ok {
		return nil, false
	}
	c.mem.Put(key, payload)
	return payload, true
}

// Put inserts into the LRU synchronously and queues the disk commit. A
// straggler completing after Close (an escalated shutdown abandoned its
// job mid-flight) commits inline instead — nothing races the closed
// queue, and the payload still lands on disk for the next boot.
func (c *tieredCache) Put(key string, payload []byte) {
	c.mem.Put(key, payload)
	if c.disk == nil {
		return
	}
	c.sendMu.RLock()
	if c.closed {
		c.sendMu.RUnlock()
		_ = c.disk.Put(key, payload)
		return
	}
	c.hold(key, payload)
	select {
	case c.writes <- spillWrite{key: key, payload: payload}:
	default:
		c.release(key)
		c.droppedWrites.Add(1)
	}
	c.sendMu.RUnlock()
}

// Len returns the in-memory entry count (the gauge the pre-store
// mobiserved_cache_entries metric always meant; the disk tier has its own
// entries/bytes gauges).
func (c *tieredCache) Len() int {
	return c.mem.Len()
}

// Flush blocks until every disk commit queued before the call has been
// written. Tests and shutdown use it; request paths never do.
func (c *tieredCache) Flush() {
	if c.disk == nil {
		return
	}
	c.sendMu.RLock()
	if c.closed {
		// Close already drained the queue; nothing is pending.
		c.sendMu.RUnlock()
		return
	}
	ack := make(chan struct{})
	c.writes <- spillWrite{ack: ack}
	c.sendMu.RUnlock()
	<-ack
}

// Close drains and stops the writer goroutine; queued commits are written
// before it returns, so nothing computed before shutdown is lost. The
// cache stays readable (memory and disk) after Close; only spilling
// stops. Safe to call more than once.
func (c *tieredCache) Close() {
	if c.disk == nil {
		return
	}
	c.sendMu.Lock()
	alreadyClosed := c.closed
	c.closed = true
	if !alreadyClosed {
		close(c.writes)
	}
	c.sendMu.Unlock()
	if !alreadyClosed {
		c.writerWG.Wait()
	}
}

// put bypasses the write-behind queue: the disk commit happens inline.
// The coordinator uses it when persisting a payload fetched from a fleet
// worker — losing that to a full queue would mean re-fetching over the
// network rather than re-running locally, and the synchronous cost is
// paid on a dispatcher goroutine, never the worker-pool hot path.
func (c *tieredCache) put(key string, payload []byte) {
	c.mem.Put(key, payload)
	if c.disk != nil {
		_ = c.disk.Put(key, payload)
	}
}
