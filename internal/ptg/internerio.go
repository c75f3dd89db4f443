package ptg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// AppendKeys appends the canonical key encodings of the views lo..hi-1 to
// buf in ID order, each as a uvarint length followed by the key bytes, and
// returns the extended buffer. Because IDs are dense and assigned in
// insertion order, importing consecutive ranges into a fresh interner
// (ImportKeys) reproduces the identical ID assignment — the determinism a
// checkpoint resume rests on.
//
// The cost is O(hi-lo) plus a binary search per shard — within a shard,
// entries are appended under the shard lock in ID order — so exporting one
// round's new views never touches the rest of the arena, and buf grows at
// most once. AppendKeys is safe to call concurrently with interning; it
// panics if hi exceeds Size().
func (in *Interner) AppendKeys(buf []byte, lo, hi ViewID) []byte {
	if lo < 0 || lo > hi || int(hi) > in.Size() {
		panic(fmt.Sprintf("ptg: AppendKeys(%d, %d) outside interner of size %d", lo, hi, in.Size()))
	}
	var entries [internShards][]internEntry
	var arenas [internShards][]byte
	loc := make([]uint64, hi-lo) // by id-lo: shard<<32 | entry index
	size := 0
	for si := range in.shards {
		sh := &in.shards[si]
		sh.mu.Lock()
		es, arena := sh.entries, sh.arena
		sh.mu.Unlock()
		// Every ID below hi was assigned (and its entry appended) under a
		// shard lock before the call, so the captured headers cover it.
		entries[si], arenas[si] = es, arena
		first := sort.Search(len(es), func(i int) bool { return es[i].id >= lo })
		for ei := first; ei < len(es) && es[ei].id < hi; ei++ {
			loc[es[ei].id-lo] = uint64(si)<<32 | uint64(ei)
			size += uvarintLen(uint64(es[ei].klen)) + int(es[ei].klen)
		}
	}
	buf = slices.Grow(buf, size)
	for _, l := range loc {
		e := &entries[l>>32][uint32(l)]
		buf = binary.AppendUvarint(buf, uint64(e.klen))
		buf = append(buf, arenas[l>>32][e.off:e.off+e.klen]...)
	}
	return buf
}

// ImportKeys interns count keys, encoded as AppendKeys writes them, as the
// views lo, lo+1, … of an interner that holds exactly lo views, verifying
// that every key receives exactly its expected ID: a truncated list,
// trailing bytes, an empty key or a key already interned (a duplicate, or
// a range that does not continue the interner) is an error. On error the
// interner may hold a prefix of the keys and must be discarded.
func (in *Interner) ImportKeys(lo ViewID, count int, list []byte) error {
	if size := in.Size(); int(lo) != size {
		return fmt.Errorf("ptg: importing views from id %d into an interner of size %d", lo, size)
	}
	if count < 0 || int64(lo)+int64(count) > math.MaxInt32 {
		return fmt.Errorf("ptg: importing %d views from id %d overflows the id space", count, lo)
	}
	for i := 0; i < count; i++ {
		want := lo + ViewID(i)
		klen, k := binary.Uvarint(list)
		if k <= 0 || klen == 0 || klen > uint64(len(list)-k) {
			return fmt.Errorf("ptg: bad key length for view %d", want)
		}
		key := list[k : k+int(klen)]
		list = list[k+int(klen):]
		if id := in.intern(key); id != want {
			return fmt.Errorf("ptg: key for view %d re-interned as id %d (duplicate key)", want, id)
		}
	}
	if len(list) != 0 {
		return errors.New("ptg: trailing bytes after the imported keys")
	}
	return nil
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int { return max(1, (bits.Len64(v)+6)/7) }
