package ptg

import (
	"bytes"
	"encoding/binary"
	"sync"
	"sync/atomic"
)

// ViewID identifies a hash-consed causal cone. Two views (possibly from
// different runs) are equal as process-time sub-DAGs if and only if their
// ViewIDs from the same Interner are equal.
type ViewID int32

// Interner hash-conses causal cones. All runs that are to be compared must
// share one Interner; the prefix-space machinery in internal/topo owns one
// per space.
//
// The recursive encoding is collision-free by construction (it is a
// canonical serialization, not a hash): a leaf encodes (process, input
// value); an inner node encodes (process, sorted child (q, ViewID) pairs).
// By induction on round number, equal encodings imply equal cones: the
// unfolding of a cone determines the cone, because the in-neighbourhood of
// every cone node within the cone appears at each of its occurrences.
//
// An Interner is safe for concurrent use and engineered for the parallel
// frontier expansion in internal/topo, where every one of the |S|·n interns
// per extended round would otherwise serialize:
//
//   - the table is split into 64 shards selected by the top bits of the key
//     hash, so workers interning unrelated cones take disjoint locks;
//   - each shard is an open-addressing table whose keys live in one
//     append-only byte arena — interning allocates nothing per call (keys
//     are encoded into stack buffers, arena and table growth is amortized
//     geometric), unlike the previous string-keyed map that allocated a key
//     string per novel cone and a hash bucket per entry;
//   - IDs are drawn from one atomic counter, so they stay dense across
//     shards — the decomposition machinery indexes per-ViewID scratch
//     tables by Size().
//
// IDs are assigned in insertion order; concurrent runs may assign different
// IDs to the same cone — only equality within one Interner is meaningful.
type Interner struct {
	next   atomic.Int32
	shards [internShards]internShard
}

// internShards is the lock-striping factor. 64 shards keep the expected
// contention of even a 64-worker expansion below one waiter per lock; the
// per-shard footprint (one slice header triple + mutex) is negligible
// against the interned data itself.
const internShards = 64

// internShard is one stripe: an open-addressing hash table (1-based indices
// into entries, 0 = empty) over keys stored back-to-back in arena.
type internShard struct {
	mu      sync.Mutex
	table   []int32
	entries []internEntry
	arena   []byte
}

// internEntry locates one interned key in the shard arena. The full hash is
// memoized so table growth and probe comparisons never re-hash or touch the
// arena for non-colliding entries.
type internEntry struct {
	hash uint64
	off  uint32
	klen uint32
	id   ViewID
}

// internShardInitialSize is the initial open-addressing table size per
// shard; must be a power of two.
const internShardInitialSize = 64

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{}
}

// Size returns the number of distinct views interned so far. It is safe to
// call concurrently with interning; every ViewID observed before the call
// is strictly below the returned size (IDs are dense, in insertion order).
func (in *Interner) Size() int {
	return int(in.next.Load())
}

// Leaf interns the time-0 view of process p with input x.
//
//topocon:allocfree
func (in *Interner) Leaf(p, x int) ViewID {
	var buf [1 + 2*binary.MaxVarintLen64]byte
	buf[0] = 'L'
	k := 1
	k += binary.PutUvarint(buf[k:], uint64(p))
	k += binary.PutVarint(buf[k:], int64(x))
	return in.intern(buf[:k])
}

// nodeKeyStackSize bounds the stack-encoded node key: owner tag plus one
// uvarint pair per child. 24 children cover every realistic process count
// without heap fallback (the uvarint pairs of small ids are 2-4 bytes, so
// even n = 64 usually fits; the cap below is on the worst case).
const nodeKeyStackSize = 2 + binary.MaxVarintLen64 + 24*2*binary.MaxVarintLen64

// Node interns the time-t view of process p whose round-t in-neighbours
// (ascending process order) have the time-(t-1) views children. The caller
// must pass children aligned with the ascending order of the in-neighbour
// set; the neighbour identities are part of the encoding via their own
// leaf/node process labels plus position, so the pair list is (q, id).
//
//topocon:allocfree
func (in *Interner) Node(p int, qs []int, children []ViewID) ViewID {
	var stack [nodeKeyStackSize]byte
	buf := stack[:0]
	if need := 2 + binary.MaxVarintLen64 + len(children)*2*binary.MaxVarintLen64; need > nodeKeyStackSize {
		buf = make([]byte, 0, need)
	}
	var tmp [binary.MaxVarintLen64]byte
	buf = append(buf, 'N')
	k := binary.PutUvarint(tmp[:], uint64(p))
	buf = append(buf, tmp[:k]...)
	for i, id := range children {
		k = binary.PutUvarint(tmp[:], uint64(qs[i]))
		buf = append(buf, tmp[:k]...)
		k = binary.PutUvarint(tmp[:], uint64(id))
		buf = append(buf, tmp[:k]...)
	}
	return in.intern(buf)
}

// intern returns the ID of key, assigning the next dense ID on first sight.
// key is copied into the shard arena on insertion; the caller's buffer is
// never retained, so stack-encoded keys do not escape.
//
//topocon:allocfree
func (in *Interner) intern(key []byte) ViewID {
	h := hashKey(key)
	sh := &in.shards[h>>(64-6)] // top 6 bits pick one of the 64 shards
	sh.mu.Lock()
	if sh.table == nil {
		sh.table = make([]int32, internShardInitialSize)
	}
	mask := uint64(len(sh.table) - 1)
	i := h & mask
	for {
		slot := sh.table[i]
		if slot == 0 {
			break
		}
		e := &sh.entries[slot-1]
		if e.hash == h && int(e.klen) == len(key) &&
			bytes.Equal(sh.arena[e.off:e.off+e.klen], key) {
			id := e.id
			sh.mu.Unlock()
			return id
		}
		i = (i + 1) & mask
	}
	off := len(sh.arena)
	sh.arena = append(sh.arena, key...)
	id := ViewID(in.next.Add(1) - 1)
	sh.entries = append(sh.entries, internEntry{
		hash: h, off: uint32(off), klen: uint32(len(key)), id: id,
	})
	sh.table[i] = int32(len(sh.entries))
	if uint64(len(sh.entries))*4 >= (mask+1)*3 {
		sh.grow()
	}
	sh.mu.Unlock()
	return id
}

// grow doubles the shard's probe table, re-seating entries from their
// memoized hashes. Amortized over insertions this is O(1) per intern.
func (sh *internShard) grow() {
	next := make([]int32, 2*len(sh.table))
	mask := uint64(len(next) - 1)
	for ei := range sh.entries {
		i := sh.entries[ei].hash & mask
		for next[i] != 0 {
			i = (i + 1) & mask
		}
		next[i] = int32(ei + 1)
	}
	sh.table = next
}

// hashKey is FNV-1a over the canonical key encoding: cheap, dependency-free
// and good enough that shard selection (top bits) and probe position (low
// bits) stay decorrelated.
func hashKey(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}
