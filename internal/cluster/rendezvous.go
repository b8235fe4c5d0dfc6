// Package cluster is the fleet layer over the simulation service: a
// coordinator-side executor that shards a sweep's distinct points across N
// mobiserved workers by rendezvous (highest-random-weight) hashing on the
// point's content hash. Placement is a pure function of (point hash,
// worker set): every coordinator — and every overlapping sweep on the same
// coordinator — sends a given point to the same worker, so fleet-wide
// deduplication is structural (each distinct point has one home, whose
// in-flight coalescing and tiered cache collapse repeats), not a protocol:
// the coordinator keeps no in-flight map of its own, and each sweep's
// request for a point runs under that sweep's own context.
// When a worker dies, its points re-route to the next worker in that
// point's preference order with bounded retries, and only that worker's
// 1/N share moves — the rendezvous property that makes failover cheap.
package cluster

import (
	"hash/fnv"
	"sort"
)

// score is the rendezvous weight of one (worker, key) pair: a 64-bit
// FNV-1a over the worker address, a separator and the key. FNV is not
// cryptographic, which is fine — placement needs a stable, well-mixed
// function, not an unforgeable one (keys are already SHA-256 content
// hashes, so adversarial clustering would require inverting those first).
func score(worker, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(worker))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return h.Sum64()
}

// Rank returns worker indices ordered best-first by rendezvous score for
// key. The full order — not just the winner — is the point's failover
// chain: index 0 is its home, index 1 absorbs it if the home is down, and
// so on. Ties (astronomically unlikely with distinct addresses) break by
// index so the order stays deterministic.
func Rank(workers []string, key string) []int {
	type ranked struct {
		idx int
		s   uint64
	}
	rs := make([]ranked, len(workers))
	for i, w := range workers {
		rs[i] = ranked{idx: i, s: score(w, key)}
	}
	sort.Slice(rs, func(a, b int) bool {
		if rs[a].s != rs[b].s {
			return rs[a].s > rs[b].s
		}
		return rs[a].idx < rs[b].idx
	})
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.idx
	}
	return out
}
