package topo

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"topocon/internal/graph"
	"topocon/internal/ma"
	"topocon/internal/pager"
	"topocon/internal/ptg"
)

// This file holds the out-of-core side of the frontier chain: spilling cold
// rounds' column arrays through internal/pager, faulting them back in on
// chain walks, and snapshotting/restoring whole chains for checkpointed
// Analyzer sessions (internal/ckpt). See DESIGN.md §9.
//
// The design exploits that frontiers are immutable once built: a round is
// encoded and persisted exactly once — when a checkpoint first needs it
// (SnapshotChain) or when it stops being the head (extendOne), whichever
// comes first — so eviction is just dropping the in-memory columns: there
// is no write-back, and a fault is a checksum-verified re-read. The
// horizon-0 base is never spilled (it carries the input vectors every
// Inputs lookup needs), and the head round is never registered for
// eviction (the hot loops read its columns without faulting).
//
// A page also carries the keys of the views its round introduced — the
// interner IDs [hi(t-1), hi(t)), where hi(t) is the interner size when
// page t was encoded and hi(0) = 0 — so a checkpoint needs no separate
// interner file: restore rebuilds the interner page by page, and a save
// writes only the new round. Page payload layout (every integer a uvarint):
//
//	column section length, then the columns: horizon, n, count, ids,
//	  heard, the round-graph dictionary (dict size, then n in-masks per
//	  graph), per-item dict indices, parentOf, rootOf
//	views section: lo, key count, and per key its length and bytes (the
//	  views lo, lo+1, …; ptg.Interner.AppendKeys)
//
// Only the column section is ever resident, so only it is charged to the
// pager's hot set; a fault ignores the views section.

// roundPageID names the page of the frontier at the given horizon; one
// pager serves one chain, so the horizon is the identity.
func roundPageID(horizon int) string { return fmt.Sprintf("round-%03d", horizon) }

// spill registers the round's page with the pager, which may now evict the
// columns (dropping the in-memory copy) whenever the hot set exceeds its
// budget. The page is encoded and written first unless a checkpoint
// already persisted it. Idempotent; the base frontier is never spilled.
func (f *frontier) spill(pg *pager.Pager, in *ptg.Interner) error {
	if f.horizon == 0 || f.pg != nil {
		return nil
	}
	if !f.persisted {
		if err := f.persist(pg, in); err != nil {
			return err
		}
	}
	if err := pg.Register(f.pageID, f.colBytes, f.evict); err != nil {
		return err
	}
	f.pg = pg
	return nil
}

// persist encodes the round's page — its columns plus the keys of every
// view interned since the previous round's page — and writes it. Rounds
// must be persisted in horizon order, since each page's views range starts
// where its predecessor's ends. The round's columns must be resident,
// which they are: only persisted rounds can be evicted.
func (f *frontier) persist(pg *pager.Pager, in *ptg.Interner) error {
	if f.prev.horizon > 0 && !f.prev.persisted {
		return fmt.Errorf("topo: round %d persisted before round %d", f.horizon, f.prev.horizon)
	}
	lo, hi := f.prev.viewsHi, ptg.ViewID(in.Size())
	payload, colBytes := f.encodePage(lo, int(hi-lo), func(buf []byte) []byte { return in.AppendKeys(buf, lo, hi) })
	id := roundPageID(f.horizon)
	if err := pg.Persist(id, payload); err != nil {
		return err
	}
	f.pageID, f.persisted, f.colBytes, f.viewsHi = id, true, colBytes, hi
	return nil
}

// evict drops the in-memory columns; the next access faults them back in.
// Invoked by the pager (outside its lock) when the page falls out of the
// hot set.
func (f *frontier) evict() {
	f.ids, f.heard, f.gs, f.parentOf, f.rootOf = nil, nil, nil, nil, nil
}

// fault makes the frontier's columns resident, re-reading the page from
// disk if it was evicted. The no-pager and resident fast paths are two
// compares. Chain walks under a pager are driven from one goroutine (the
// Analyzer session loop); fault is not safe for concurrent cold access.
func (f *frontier) fault() {
	if err := f.ensure(); err != nil {
		// The chain-walking accessors (HeardByAllAt, ViewsOf, RunOf, …) have
		// no error returns; a page that was validated at spill/restore time
		// and is now unreadable is an environment failure, not a recoverable
		// condition. The restore path uses ensure directly and errors cleanly.
		panic(err)
	}
}

// ensure is fault with an error return, for paths that can report it.
func (f *frontier) ensure() error {
	if f.pg == nil || f.ids != nil {
		return nil
	}
	payload, err := f.pg.Fault(f.pageID, f.evict)
	if err != nil {
		return err
	}
	cols, _, err := pageSections(payload)
	if err != nil {
		return err
	}
	return f.decodeColumns(cols)
}

// encodePage serializes the round's page: the column section behind its
// length, then the views section — lo, count, and the keys of the views
// lo…lo+count−1 as appendKeys writes them. It returns the payload and the
// size of its column section.
func (f *frontier) encodePage(lo ptg.ViewID, count int, appendKeys func([]byte) []byte) (payload []byte, colBytes int64) {
	// The column section's length is known only once it is encoded; it is
	// then written right-aligned into a gap wide enough for any uvarint, so
	// nothing is encoded twice or copied.
	const gap = binary.MaxVarintLen64
	buf := make([]byte, gap, gap+16+f.count*(2*f.n+3)*2)
	buf = f.appendColumns(buf)
	cols := uint64(len(buf) - gap)
	start := gap - uvarintLen(cols)
	binary.PutUvarint(buf[start:], cols)
	buf = binary.AppendUvarint(buf, uint64(lo))
	buf = binary.AppendUvarint(buf, uint64(count))
	return appendKeys(buf)[start:], int64(cols)
}

// appendColumns serializes the round's columns: header (horizon, n,
// count), ids, heard, a deduplicated round-graph dictionary plus per-item
// indices (one round's graphs come from a small Choices menu, so the
// dictionary keeps decoded rounds sharing graph backing arrays), parentOf
// and rootOf. Framing and checksums are the pager's job.
func (f *frontier) appendColumns(buf []byte) []byte {
	n, count := f.n, f.count
	buf = binary.AppendUvarint(buf, uint64(f.horizon))
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendUvarint(buf, uint64(count))
	for _, id := range f.ids {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	for _, h := range f.heard {
		buf = binary.AppendUvarint(buf, h)
	}
	// Dictionary entries appear in order of first use. Consecutive items
	// often share a graph, so the last hit is checked first; otherwise a
	// hash of the in-masks finds the candidate and Equal confirms it (a
	// collision falls back to a scan).
	dict := make([]graph.Graph, 0, 16)
	byHash := make(map[uint64]int32, 16)
	gidx := make([]int32, count)
	last := int32(-1)
	for i, g := range f.gs {
		if last >= 0 && dict[last].Equal(g) {
			gidx[i] = last
			continue
		}
		h := maskHash(g)
		di, ok := byHash[h]
		if !ok || !dict[di].Equal(g) {
			di = -1
			for j := 0; ok && j < len(dict); j++ {
				if dict[j].Equal(g) {
					di = int32(j)
					break
				}
			}
			if di < 0 {
				di = int32(len(dict))
				dict = append(dict, g)
				if !ok {
					byHash[h] = di
				}
			}
		}
		gidx[i], last = di, di
	}
	buf = binary.AppendUvarint(buf, uint64(len(dict)))
	for _, g := range dict {
		for q := 0; q < n; q++ {
			buf = binary.AppendUvarint(buf, g.In(q))
		}
	}
	for _, di := range gidx {
		buf = binary.AppendUvarint(buf, uint64(di))
	}
	for _, p := range f.parentOf {
		buf = binary.AppendUvarint(buf, uint64(p))
	}
	for _, r := range f.rootOf {
		buf = binary.AppendUvarint(buf, uint64(r))
	}
	return buf
}

// maskHash is FNV-1a over a graph's in-masks, one word per step.
func maskHash(g graph.Graph) uint64 {
	h := uint64(14695981039346656037)
	for q := 0; q < g.N(); q++ {
		h = (h ^ g.In(q)) * 1099511628211
	}
	return h
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int { return max(1, (bits.Len64(v)+6)/7) }

// pageSections splits a page payload into its column section and its
// views section.
func pageSections(payload []byte) (cols, views []byte, err error) {
	d := &pageDecoder{data: payload}
	n := d.uvarint()
	if d.err != nil {
		return nil, nil, d.err
	}
	if n > uint64(len(d.data)) {
		return nil, nil, fmt.Errorf("topo: frontier page column section of %d bytes in %d", n, len(d.data))
	}
	return d.data[:n], d.data[n:], nil
}

// decodeViews parses a views section into its first view ID, its view
// count and its key list (for ptg.Interner.ImportKeys, which validates
// the keys); the list aliases the section.
func decodeViews(sec []byte) (lo ptg.ViewID, count int, list []byte, err error) {
	d := &pageDecoder{data: sec}
	first, n := d.uvarint(), d.uvarint()
	if d.err != nil {
		return 0, 0, nil, d.err
	}
	// Every key takes at least two bytes (a length and one byte of key).
	if first > math.MaxInt32 || n > uint64(len(d.data))/2 || first+n > math.MaxInt32 {
		return 0, 0, nil, fmt.Errorf("topo: frontier page views [%d, +%d) out of range", first, n)
	}
	return ptg.ViewID(first), int(n), d.data, nil
}

// pageDecoder reads back-to-back uvarints with strict bounds.
type pageDecoder struct {
	data []byte
	err  error
}

func (d *pageDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, k := binary.Uvarint(d.data)
	if k <= 0 {
		d.err = errors.New("topo: truncated frontier page")
		return 0
	}
	d.data = d.data[k:]
	return v
}

// decodeColumns rebuilds the columns from an appendColumns section,
// validating the header against the frontier's immutable identity (which
// survives eviction) and every index against its column's range.
func (f *frontier) decodeColumns(payload []byte) error {
	d := &pageDecoder{data: payload}
	h, n, count := int(d.uvarint()), int(d.uvarint()), int(d.uvarint())
	if d.err == nil && (h != f.horizon || n != f.n || count != f.count) {
		return fmt.Errorf("topo: frontier page header (h=%d n=%d count=%d) does not match round (h=%d n=%d count=%d)",
			h, n, count, f.horizon, f.n, f.count)
	}
	ids := make([]ptg.ViewID, count*n)
	for i := range ids {
		ids[i] = ptg.ViewID(d.uvarint())
	}
	heard := make([]uint64, count*n)
	for i := range heard {
		heard[i] = d.uvarint()
	}
	dictLen := int(d.uvarint())
	if d.err != nil {
		return d.err
	}
	if dictLen < 0 || dictLen > count {
		return fmt.Errorf("topo: frontier page graph dictionary of %d entries for %d items", dictLen, count)
	}
	dict := make([]graph.Graph, dictLen)
	masks := make([]uint64, n)
	for i := range dict {
		for q := 0; q < n; q++ {
			masks[q] = d.uvarint()
		}
		if d.err != nil {
			return d.err
		}
		g, err := graph.FromInMasks(n, masks)
		if err != nil {
			return fmt.Errorf("topo: frontier page graph %d: %w", i, err)
		}
		dict[i] = g
	}
	gs := make([]graph.Graph, count)
	for i := range gs {
		di := d.uvarint()
		if d.err != nil {
			return d.err
		}
		if di >= uint64(dictLen) {
			return fmt.Errorf("topo: frontier page graph index %d out of %d", di, dictLen)
		}
		gs[i] = dict[di]
	}
	parentOf := make([]int32, count)
	prevCount := 0
	if f.prev != nil {
		prevCount = f.prev.count
	}
	for i := range parentOf {
		p := d.uvarint()
		if d.err == nil && p >= uint64(prevCount) {
			return fmt.Errorf("topo: frontier page parent index %d out of %d", p, prevCount)
		}
		parentOf[i] = int32(p)
	}
	rootOf := make([]int32, count)
	baseCount := f.base.count
	for i := range rootOf {
		r := d.uvarint()
		if d.err == nil && r >= uint64(baseCount) {
			return fmt.Errorf("topo: frontier page root index %d out of %d", r, baseCount)
		}
		rootOf[i] = int32(r)
	}
	if d.err != nil {
		return d.err
	}
	if len(d.data) != 0 {
		return fmt.Errorf("topo: frontier page has %d trailing bytes", len(d.data))
	}
	f.ids, f.heard, f.gs, f.parentOf, f.rootOf = ids, heard, gs, parentOf, rootOf
	return nil
}

// Pager returns the pager attached at build time, or nil.
func (s *Space) Pager() *pager.Pager { return s.pager }

// ChainRound references one persisted round of a frontier chain.
type ChainRound struct {
	Horizon int    `json:"horizon"`
	Count   int    `json:"count"`
	PageID  string `json:"pageID"`
}

// SnapshotChain persists every round of the space's frontier chain that is
// not yet on disk — under the Analyzer flow that is only the head, every
// older round having been persisted when it stopped being the head — and
// returns the page references for horizons 1..Horizon, ascending. Pending
// rounds are encoded in ascending order, as their views ranges chain. The
// head stays resident and unregistered; when it later stops being the head
// its page is registered without being encoded or written again.
func (s *Space) SnapshotChain() ([]ChainRound, error) {
	if s.pager == nil {
		return nil, errors.New("topo: SnapshotChain requires a pager (Config.Pager)")
	}
	var pending []*frontier
	for f := s.fr; f.horizon > 0 && !f.persisted; f = f.prev {
		pending = append(pending, f)
	}
	for i := len(pending) - 1; i >= 0; i-- {
		if err := pending[i].persist(s.pager, s.Interner); err != nil {
			return nil, err
		}
	}
	rounds := make([]ChainRound, s.Horizon)
	for f := s.fr; f.horizon > 0; f = f.prev {
		rounds[f.horizon-1] = ChainRound{Horizon: f.horizon, Count: f.count, PageID: f.pageID}
	}
	return rounds, nil
}

// ChainSpec describes a persisted frontier chain to restore.
type ChainSpec struct {
	Adversary   ma.Adversary
	InputDomain int
	MaxRuns     int // ≤ 0 selects DefaultMaxRuns
	Parallelism int
	// Pager owns the page directory the rounds reference.
	Pager *pager.Pager
	// Rounds are the persisted rounds, horizons 1..H ascending (from
	// SnapshotChain).
	Rounds []ChainRound
	// Symmetry must be the automorphism group the checkpointed session was
	// quotiented by (nil for a full-space session). The group, stabilizer
	// column and relabel memo are derived state — never serialized, the
	// page format is symmetry-agnostic — so restore recomputes them by the
	// same recurrence the original extension applied. Restoring a
	// quotiented chain without its group (or vice versa) mis-shapes every
	// page's item count and fails the count validation.
	Symmetry *ma.Group
}

// RestoreChain rebuilds the frontier chain of a checkpointed session and
// returns the space at the deepest horizon, ready to Extend further.
//
// The interner is rebuilt page by page: each page's views section is
// imported first — its IDs must continue the interner densely — and only
// then are the page's columns decoded and their ViewIDs checked against
// it. Page 1 carries the horizon-0 leaf views, so the base is built after
// importing it and finds every leaf under its recorded ID.
//
// The automaton states are not serialized (ma.State is opaque by design);
// they are recomputed by deterministic replay: round by round, every page
// is read and checksum-verified exactly once, the adversary is stepped
// along the recorded round graphs, and the round is then registered with
// the pager and evicted again — so restore memory stays at ~two rounds
// plus one state column (and the interner) regardless of depth, and a
// corrupt page surfaces here as a clean error, never as a wrong resume.
//
//topocon:allow ctxflow -- pre-context bootstrap path behind ckpt.Load/RestoreAnalyzer; work is bounded by the already-checkpointed chain, with no external waits to cancel
func RestoreChain(spec ChainSpec) (*Space, error) {
	if spec.Adversary == nil || spec.Pager == nil {
		return nil, errors.New("topo: RestoreChain: adversary and pager are required")
	}
	maxRuns := spec.MaxRuns
	if maxRuns <= 0 {
		maxRuns = DefaultMaxRuns
	}
	adv := spec.Adversary
	n := adv.N()
	in := ptg.NewInterner()
	newBase := func() *Space {
		base := buildBaseSym(adv, spec.InputDomain, in, maxRuns, spec.Parallelism, spec.Symmetry)
		base.pager = spec.Pager
		return base
	}
	var s *Space
	for ri, cr := range spec.Rounds {
		if cr.Horizon != ri+1 {
			return nil, fmt.Errorf("topo: RestoreChain: round %d has horizon %d, want %d", ri, cr.Horizon, ri+1)
		}
		if cr.Count <= 0 || cr.Count > maxRuns {
			return nil, fmt.Errorf("topo: RestoreChain: round %d count %d out of range", cr.Horizon, cr.Count)
		}
		payload, err := spec.Pager.ReadPage(cr.PageID)
		if err != nil {
			return nil, err
		}
		cols, views, err := pageSections(payload)
		if err != nil {
			return nil, fmt.Errorf("topo: RestoreChain: round %d: %w", cr.Horizon, err)
		}
		lo, count, list, err := decodeViews(views)
		if err != nil {
			return nil, fmt.Errorf("topo: RestoreChain: round %d: %w", cr.Horizon, err)
		}
		if err := in.ImportKeys(lo, count, list); err != nil {
			return nil, fmt.Errorf("topo: RestoreChain: round %d views: %w", cr.Horizon, err)
		}
		hi := lo + ptg.ViewID(count)
		if s == nil {
			s = newBase()
		}
		f := &frontier{
			horizon:   cr.Horizon,
			n:         n,
			count:     cr.Count,
			prev:      s.fr,
			base:      s.fr.base,
			pageID:    cr.PageID,
			persisted: true,
			colBytes:  int64(len(cols)),
			viewsHi:   hi,
		}
		if err := f.decodeColumns(cols); err != nil {
			return nil, fmt.Errorf("topo: RestoreChain: round %d: %w", cr.Horizon, err)
		}
		for _, id := range f.ids {
			if id < 0 || id >= hi {
				return nil, fmt.Errorf("topo: RestoreChain: round %d references view %d beyond its pages' %d views",
					cr.Horizon, id, hi)
			}
		}
		states := make([]ma.State, cr.Count)
		doneAt := make([]int32, cr.Count)
		valence := make([]int32, cr.Count)
		for c := 0; c < cr.Count; c++ {
			pi := f.parentOf[c]
			state := adv.Step(s.states[pi], f.gs[c])
			da := s.doneAt[pi]
			if da < 0 && adv.Done(state) {
				da = int32(cr.Horizon)
			}
			states[c] = state
			doneAt[c] = da
			valence[c] = s.valence[pi]
		}
		next := &Space{
			Adversary:   adv,
			InputDomain: spec.InputDomain,
			Horizon:     cr.Horizon,
			Interner:    in,
			fr:          f,
			states:      states,
			doneAt:      doneAt,
			valence:     valence,
			maxRuns:     maxRuns,
			parallelism: spec.Parallelism,
			pager:       spec.Pager,
			sym:         s.sym,
		}
		if s.sym != nil {
			// Replay the stabilizer recurrence and refill the round's slice
			// of the chain relabel memo (derived state, never serialized).
			// The relabel pass reads the parent round's id column, which was
			// evicted at the end of its own iteration — fault it back for
			// the pass; it re-evicts whenever the pager needs the room.
			next.stab = replayStab(s, f)
			if err := f.prev.ensure(); err != nil {
				return nil, err
			}
			if err := next.relabelRound(context.Background()); err != nil {
				return nil, err
			}
		}
		if cr.Horizon < len(spec.Rounds) {
			// Interior round: register it cold (the page was just validated)
			// and drop the columns; walks fault them back on demand. The
			// deepest round stays resident as the new head; its page is
			// registered, not rewritten, once it stops being the head.
			if err := spec.Pager.Adopt(cr.PageID, f.colBytes, f.evict); err != nil {
				return nil, err
			}
			f.pg = spec.Pager
			f.evict()
		}
		s = next
	}
	if s == nil {
		s = newBase()
	}
	return s, nil
}

// AncestorAt materializes the space at an earlier horizon t of the chain,
// faulting spilled rounds as needed and replaying the automaton states from
// the base (states are per-space, not per-frontier, so an evicted horizon
// has none). It is the rehydration path behind check.Analyzer.SpaceAt for
// evicted horizons; a cold reporting/debugging operation, O(chain) page
// reads and steps.
func (s *Space) AncestorAt(t int) (*Space, error) {
	if t == s.Horizon {
		return s, nil
	}
	if t < 0 || t > s.Horizon {
		return nil, fmt.Errorf("topo: AncestorAt(%d) outside chain of horizon %d", t, s.Horizon)
	}
	target := s.fr
	for target.horizon > t {
		target = target.prev
	}
	// Collect the path base..target, then replay forward.
	path := make([]*frontier, 0, t+1)
	for f := target; f != nil; f = f.prev {
		path = append(path, f)
	}
	base := path[len(path)-1]
	states := make([]ma.State, base.count)
	doneAt := make([]int32, base.count)
	valence := make([]int32, base.count)
	var stab []uint64
	start := s.Adversary.Start()
	da0 := int32(-1)
	if s.Adversary.Done(start) {
		da0 = 0
	}
	for i, w := range base.inputs {
		states[i] = start
		doneAt[i] = da0
		valence[i] = valenceOf(w)
	}
	if s.sym != nil {
		// The stabilizer column is per-space derived state, replayed forward
		// alongside the automaton states; the chain relabel memo is shared
		// and already covers every round ≤ s.Horizon.
		stab = make([]uint64, base.count)
		for i, w := range base.inputs {
			st, _ := inputOrbitRep(w, s.sym.group)
			stab[i] = st
		}
	}
	for ri := len(path) - 2; ri >= 0; ri-- {
		f := path[ri]
		if err := f.ensure(); err != nil {
			return nil, err
		}
		nextStates := make([]ma.State, f.count)
		nextDoneAt := make([]int32, f.count)
		nextValence := make([]int32, f.count)
		var nextStab []uint64
		if s.sym != nil {
			nextStab = make([]uint64, f.count)
		}
		for c := 0; c < f.count; c++ {
			pi := f.parentOf[c]
			state := s.Adversary.Step(states[pi], f.gs[c])
			da := doneAt[pi]
			if da < 0 && s.Adversary.Done(state) {
				da = int32(f.horizon)
			}
			nextStates[c] = state
			nextDoneAt[c] = da
			nextValence[c] = valence[pi]
			if nextStab != nil {
				nextStab[c] = graphOrbitStab(f.gs[c], s.sym.group, stab[pi])
			}
		}
		states, doneAt, valence, stab = nextStates, nextDoneAt, nextValence, nextStab
	}
	return &Space{
		Adversary:   s.Adversary,
		InputDomain: s.InputDomain,
		Horizon:     t,
		Interner:    s.Interner,
		fr:          target,
		states:      states,
		doneAt:      doneAt,
		valence:     valence,
		maxRuns:     s.maxRuns,
		parallelism: s.parallelism,
		pager:       s.pager,
		sym:         s.sym,
		stab:        stab,
	}, nil
}

// CompSnapshot is the serializable summary of one Component; Members are
// not stored — they are rebuilt from CompOf (whose ascending sweep restores
// the ordered-by-smallest-member layout).
type CompSnapshot struct {
	Valences      []int  `json:"valences,omitempty"`
	Broadcasters  uint64 `json:"broadcasters,string"`
	UniformInputs uint64 `json:"uniformInputs,string"`
}

// DecompSnapshot is the serializable form of a Decomposition, relative to a
// space restored separately.
type DecompSnapshot struct {
	Horizon int            `json:"horizon"`
	CompOf  []int          `json:"compOf"`
	Comps   []CompSnapshot `json:"comps"`
	// Mult is the pseudo-item multiplier of a quotiented decomposition
	// (components.go); 0 or 1 for a plain one.
	Mult int `json:"mult,omitempty"`
}

// SnapshotDecomposition captures a decomposition for a checkpoint.
func SnapshotDecomposition(d *Decomposition) *DecompSnapshot {
	snap := &DecompSnapshot{
		Horizon: d.Space.Horizon,
		CompOf:  append([]int(nil), d.CompOf...),
		Comps:   make([]CompSnapshot, len(d.Comps)),
		Mult:    d.Mult,
	}
	for ci := range d.Comps {
		c := &d.Comps[ci]
		snap.Comps[ci] = CompSnapshot{
			Valences:      append([]int(nil), c.Valences...),
			Broadcasters:  c.Broadcasters,
			UniformInputs: c.UniformInputs,
		}
	}
	return snap
}

// RestoreDecomposition rebuilds a Decomposition over a restored space,
// validating the snapshot's shape strictly: the partition must label every
// item, reference every component, and keep components ordered by smallest
// member (the invariant Refine's seeding relies on).
func RestoreDecomposition(s *Space, snap *DecompSnapshot) (*Decomposition, error) {
	if snap.Horizon != s.Horizon {
		return nil, fmt.Errorf("topo: RestoreDecomposition: snapshot at horizon %d, space at %d", snap.Horizon, s.Horizon)
	}
	m := s.SymOrder()
	snapMult := snap.Mult
	if snapMult <= 1 {
		snapMult = 1
	}
	if snapMult != m {
		return nil, fmt.Errorf("topo: RestoreDecomposition: snapshot multiplier %d, space symmetry order %d", snapMult, m)
	}
	if len(snap.CompOf) != s.Len()*m {
		return nil, fmt.Errorf("topo: RestoreDecomposition: %d labels for %d items", len(snap.CompOf), s.Len()*m)
	}
	d := &Decomposition{
		Space:  s,
		CompOf: append([]int(nil), snap.CompOf...),
		Comps:  make([]Component, len(snap.Comps)),
		Mult:   m,
	}
	sizes := make([]int, len(snap.Comps))
	nextNew := 0
	for i, ci := range d.CompOf {
		if ci < 0 || ci >= len(snap.Comps) {
			return nil, fmt.Errorf("topo: RestoreDecomposition: item %d labeled %d of %d components", i, ci, len(snap.Comps))
		}
		if ci > nextNew {
			return nil, fmt.Errorf("topo: RestoreDecomposition: components not ordered by smallest member (item %d labeled %d before %d appeared)", i, ci, nextNew)
		}
		if ci == nextNew {
			nextNew++
		}
		sizes[ci]++
	}
	if nextNew != len(snap.Comps) {
		return nil, fmt.Errorf("topo: RestoreDecomposition: %d of %d components have no members", len(snap.Comps)-nextNew, len(snap.Comps))
	}
	arena := make([]int, len(d.CompOf))
	for ci := range d.Comps {
		d.Comps[ci] = Component{
			Members:       arena[:0:sizes[ci]],
			Valences:      append([]int(nil), snap.Comps[ci].Valences...),
			Broadcasters:  snap.Comps[ci].Broadcasters,
			UniformInputs: snap.Comps[ci].UniformInputs,
		}
		arena = arena[sizes[ci]:]
	}
	for i, ci := range d.CompOf {
		d.Comps[ci].Members = append(d.Comps[ci].Members, i)
	}
	return d, nil
}
