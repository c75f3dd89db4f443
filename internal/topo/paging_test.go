package topo

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"topocon/internal/ma"
	"topocon/internal/pager"
	"topocon/internal/ptg"
)

func newTestChainPager(t *testing.T, budget int64) *pager.Pager {
	t.Helper()
	pg, err := pager.New(pager.Config{Dir: t.TempDir(), HotBytes: budget})
	if err != nil {
		t.Fatalf("pager.New: %v", err)
	}
	return pg
}

// TestPagedBuildMatchesUnpaged pins the transparency contract: building
// under a pager with a tiny hot-set budget (so every interior round is
// evicted) yields exactly the space an unpaged build yields, with chain
// walks faulting spilled rounds back in.
func TestPagedBuildMatchesUnpaged(t *testing.T) {
	ctx := context.Background()
	for _, adv := range seedAdversaries(t) {
		// The two-process families run deep under a 1-byte budget (every
		// interior round evicted, every chain walk a fault); the larger
		// families stay shallower with a budget that holds the interior
		// rounds, so the O(items·rounds) comparison walks below don't thrash
		// one page file read per item.
		horizon, budget := 4, int64(64<<10)
		if adv.N() == 2 {
			budget = 1
		} else {
			horizon = 3
		}
		plain, err := Build(adv, 2, horizon, 0)
		if err != nil {
			t.Fatalf("%s: Build: %v", adv.Name(), err)
		}
		pg := newTestChainPager(t, budget)
		paged, err := BuildCtx(ctx, adv, 2, horizon, Config{Pager: pg})
		if err != nil {
			t.Fatalf("%s: paged Build: %v", adv.Name(), err)
		}
		assertSpacesEqual(t, adv.Name(), plain, paged)
		st := pg.Stats()
		if st.PagesWritten == 0 {
			t.Fatalf("%s: paging never engaged: %+v", adv.Name(), st)
		}
		if adv.N() == 2 && (st.PagesSpilled == 0 || st.PagesFaulted == 0) {
			t.Fatalf("%s: tiny budget never spilled/faulted: %+v", adv.Name(), st)
		}
		dPlain, err := DecomposeCtx(ctx, plain)
		if err != nil {
			t.Fatal(err)
		}
		dPaged, err := DecomposeCtx(ctx, paged)
		if err != nil {
			t.Fatal(err)
		}
		assertDecompositionsEqual(t, adv.Name(), dPlain, dPaged)
	}
}

// TestPagedHotBudgetCeiling pins the hot-set policy: the resident payload
// bytes never exceed budget + one page (the most recently touched page is
// never evicted).
func TestPagedHotBudgetCeiling(t *testing.T) {
	const budget = 4 << 10
	pg := newTestChainPager(t, budget)
	s, err := BuildCtx(context.Background(), ma.LossyLink2(), 2, 7, Config{Pager: pg})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	mustSnapshotChain(t, s)
	var maxPage int64
	for f := s.fr; f.horizon > 0; f = f.prev {
		maxPage = max(maxPage, f.colBytes)
	}
	if st := pg.Stats(); st.PeakHotBytes > budget+maxPage {
		t.Fatalf("peak hot bytes %d exceed budget %d + largest page %d", st.PeakHotBytes, budget, maxPage)
	}
}

func mustSnapshotChain(t *testing.T, s *Space) []ChainRound {
	t.Helper()
	rounds, err := s.SnapshotChain()
	if err != nil {
		t.Fatalf("SnapshotChain: %v", err)
	}
	return rounds
}

// TestSnapshotRestoreChain is the core resume invariant at the topo layer:
// restoring the chain pages — which carry the interner's keys — in fresh
// objects (as a new process would) reproduces the space exactly — same
// ViewIDs, same states behaviourally (pinned by extending one more round
// and comparing), with zero re-extension of the checkpointed rounds.
func TestSnapshotRestoreChain(t *testing.T) {
	ctx := context.Background()
	for _, adv := range seedAdversaries(t) {
		horizon, budget := 3, int64(64<<10)
		if adv.N() == 2 {
			budget = 256
		} else {
			horizon = 2
		}
		dir := t.TempDir()
		pg, err := pager.New(pager.Config{Dir: dir, HotBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		s, err := BuildCtx(ctx, adv, 2, horizon, Config{Pager: pg})
		if err != nil {
			t.Fatalf("%s: Build: %v", adv.Name(), err)
		}
		rounds := mustSnapshotChain(t, s)

		// "New process": fresh pager over the same dir.
		pg2, err := pager.New(pager.Config{Dir: dir, HotBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreChain(ChainSpec{
			Adversary:   adv,
			InputDomain: 2,
			Pager:       pg2,
			Rounds:      rounds,
		})
		if err != nil {
			t.Fatalf("%s: RestoreChain: %v", adv.Name(), err)
		}
		assertSpacesEqual(t, adv.Name(), s, restored)
		if restored.Interner.Size() != s.Interner.Size() {
			t.Fatalf("%s: restored interner holds %d views, want %d", adv.Name(), restored.Interner.Size(), s.Interner.Size())
		}
		// Imported keys reproduce IDs, so even the raw view columns must
		// agree.
		for i := 0; i < s.Len(); i++ {
			for p := 0; p < s.N(); p++ {
				if s.ViewAt(i, p) != restored.ViewAt(i, p) {
					t.Fatalf("%s item %d proc %d: view %d vs %d",
						adv.Name(), i, p, s.ViewAt(i, p), restored.ViewAt(i, p))
				}
			}
		}
		// The replayed automaton states must behave identically: extend both
		// one more round and compare.
		sNext, err := s.Extend(ctx, s.Horizon+1)
		if err != nil {
			t.Fatalf("%s: Extend original: %v", adv.Name(), err)
		}
		rNext, err := restored.Extend(ctx, restored.Horizon+1)
		if err != nil {
			t.Fatalf("%s: Extend restored: %v", adv.Name(), err)
		}
		assertSpacesEqual(t, adv.Name()+" extended", sNext, rNext)
	}
}

// TestRestoreChainRejectsCorruptPages pins the never-a-wrong-resume
// contract: a truncated or bit-flipped page file fails the restore with a
// clean error (and quarantines the page), it never yields a wrong chain.
func TestRestoreChainRejectsCorruptPages(t *testing.T) {
	adv := ma.LossyLink2()
	dir := t.TempDir()
	pg, err := pager.New(pager.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildCtx(context.Background(), adv, 2, 3, Config{Pager: pg})
	if err != nil {
		t.Fatal(err)
	}
	rounds := mustSnapshotChain(t, s)
	// Swap two rounds' references: the views ranges no longer chain.
	swapped := append([]ChainRound(nil), rounds...)
	swapped[0].PageID, swapped[1].PageID = swapped[1].PageID, swapped[0].PageID
	pg2, err := pager.New(pager.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreChain(ChainSpec{
		Adversary: adv, InputDomain: 2, Pager: pg2, Rounds: swapped,
	}); err == nil {
		t.Fatal("RestoreChain accepted swapped round pages")
	}
}

// TestHeadPageEncodedOnce pins that a round is encoded and written once:
// the head page a checkpoint persisted is registered, not rewritten, when
// the next extension spills it, so the pager's write count always equals
// the page files on disk.
func TestHeadPageEncodedOnce(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	pg, err := pager.New(pager.Config{Dir: dir, HotBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildCtx(ctx, ma.LossyLink3(), 2, 3, Config{Pager: pg})
	if err != nil {
		t.Fatal(err)
	}
	headPath := filepath.Join(dir, roundPageID(3)+".page")
	mustSnapshotChain(t, s)
	before, err := os.Stat(headPath)
	if err != nil {
		t.Fatalf("SnapshotChain did not persist the head: %v", err)
	}
	next, err := s.Extend(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !s.fr.persisted || s.fr.pg != pg {
		t.Fatal("the old head was not spilled")
	}
	after, err := os.Stat(headPath)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Error("spilling the checkpointed head rewrote its page file")
	}
	mustSnapshotChain(t, next)
	files, err := filepath.Glob(filepath.Join(dir, "*.page"))
	if err != nil {
		t.Fatal(err)
	}
	if st := pg.Stats(); st.PagesWritten != int64(len(files)) || len(files) != 4 {
		t.Errorf("PagesWritten = %d for %d page files, want 4", st.PagesWritten, len(files))
	}
}

// TestAncestorAt pins SpaceAt-style rehydration: the ancestor view of a
// paged chain equals the space the ancestor horizon's Extend produced.
func TestAncestorAt(t *testing.T) {
	ctx := context.Background()
	adv := ma.LossyLink3()
	pg := newTestChainPager(t, 1)
	in := ptg.NewInterner()
	s1, err := BuildCtx(ctx, adv, 2, 1, Config{Pager: pg, Interner: in})
	if err != nil {
		t.Fatal(err)
	}
	s3, err := s1.Extend(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	anc, err := s3.AncestorAt(1)
	if err != nil {
		t.Fatalf("AncestorAt: %v", err)
	}
	assertSpacesEqual(t, "ancestor", s1, anc)
	d1, err := DecomposeCtx(ctx, s1)
	if err != nil {
		t.Fatal(err)
	}
	dAnc, err := DecomposeCtx(ctx, anc)
	if err != nil {
		t.Fatal(err)
	}
	assertDecompositionsEqual(t, "ancestor", d1, dAnc)
	if _, err := s3.AncestorAt(4); err == nil {
		t.Fatal("AncestorAt beyond horizon succeeded")
	}
	if got, err := s3.AncestorAt(3); err != nil || got != s3 {
		t.Fatalf("AncestorAt(Horizon) = %v, %v; want receiver", got, err)
	}
}

// TestDecompSnapshotRoundTrip pins that a restored decomposition is
// indistinguishable from the original — including as a Refine parent.
func TestDecompSnapshotRoundTrip(t *testing.T) {
	ctx := context.Background()
	for _, adv := range seedAdversaries(t) {
		s, err := Build(adv, 2, 2, 0)
		if err != nil {
			t.Fatalf("%s: Build: %v", adv.Name(), err)
		}
		d, err := DecomposeCtx(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreDecomposition(s, SnapshotDecomposition(d))
		if err != nil {
			t.Fatalf("%s: RestoreDecomposition: %v", adv.Name(), err)
		}
		assertDecompositionsEqual(t, adv.Name(), d, restored)
		child, err := s.Extend(ctx, 3)
		if err != nil {
			t.Fatal(err)
		}
		refWant, err := d.Refine(ctx, child)
		if err != nil {
			t.Fatal(err)
		}
		refGot, err := restored.Refine(ctx, child)
		if err != nil {
			t.Fatalf("%s: Refine from restored: %v", adv.Name(), err)
		}
		assertDecompositionsEqual(t, adv.Name()+" refined", refWant, refGot)
	}
}

// TestRestoreDecompositionRejectsBadShapes pins strict validation.
func TestRestoreDecompositionRejectsBadShapes(t *testing.T) {
	s, err := Build(ma.LossyLink2(), 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := Decompose(s)
	good := SnapshotDecomposition(d)
	bad := func(mutate func(*DecompSnapshot)) *DecompSnapshot {
		c := &DecompSnapshot{
			Horizon: good.Horizon,
			CompOf:  append([]int(nil), good.CompOf...),
			Comps:   append([]CompSnapshot(nil), good.Comps...),
		}
		mutate(c)
		return c
	}
	cases := map[string]*DecompSnapshot{
		"horizon":     bad(func(c *DecompSnapshot) { c.Horizon++ }),
		"shortCompOf": bad(func(c *DecompSnapshot) { c.CompOf = c.CompOf[:1] }),
		"outOfRange":  bad(func(c *DecompSnapshot) { c.CompOf[0] = len(c.Comps) }),
		"emptyComp":   bad(func(c *DecompSnapshot) { c.Comps = append(c.Comps, CompSnapshot{}) }),
	}
	if len(good.Comps) >= 2 {
		cases["unordered"] = bad(func(c *DecompSnapshot) { c.CompOf[0] = 1 })
	}
	for name, snap := range cases {
		if _, err := RestoreDecomposition(s, snap); err == nil {
			t.Errorf("%s: RestoreDecomposition accepted bad snapshot", name)
		}
	}
}
