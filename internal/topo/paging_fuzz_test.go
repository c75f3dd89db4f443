package topo

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"topocon/internal/ma"
	"topocon/internal/pager"
	"topocon/internal/ptg"
)

// FuzzDecodePage feeds arbitrary bytes to the page payload decoders — the
// column section and the views section — against the identity of a real
// round (horizon 2 of LossyLink2). Decoding must never panic, and any
// payload it accepts must round-trip: re-encoding the decoded round and
// views and decoding again yields the same round, views and bytes. A
// views section starting at id 0 must import into a fresh interner or be
// refused, and an interner it imports into must export the same keys.
func FuzzDecodePage(f *testing.F) {
	pg, err := pager.New(pager.Config{Dir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	s, err := BuildCtx(context.Background(), ma.LossyLink2(), 2, 2, Config{Pager: pg})
	if err != nil {
		f.Fatal(err)
	}
	head := s.fr
	type page struct {
		fr    *frontier
		lo    ptg.ViewID
		count int
		list  []byte
	}
	decode := func(data []byte) (*page, error) {
		cols, views, err := pageSections(data)
		if err != nil {
			return nil, err
		}
		lo, count, list, err := decodeViews(views)
		if err != nil {
			return nil, err
		}
		fr := &frontier{horizon: head.horizon, n: head.n, count: head.count, prev: head.prev, base: head.base}
		if err := fr.decodeColumns(cols); err != nil {
			return nil, err
		}
		return &page{fr, lo, count, list}, nil
	}
	encode := func(p *page) []byte {
		payload, _ := p.fr.encodePage(p.lo, p.count, func(buf []byte) []byte { return append(buf, p.list...) })
		return payload
	}
	for _, fr := range []*frontier{head, head.prev} {
		lo, hi := fr.prev.viewsHi, ptg.ViewID(s.Interner.Size())
		payload, _ := fr.encodePage(lo, int(hi-lo), func(buf []byte) []byte { return s.Interner.AppendKeys(buf, lo, hi) })
		if _, err := decode(payload); (err == nil) != (fr == head) {
			f.Fatalf("round %d page against the head's identity: %v", fr.horizon, err)
		}
		f.Add(payload)
		f.Add(payload[:len(payload)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{3, 0, 1, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := decode(data)
		if err != nil {
			return
		}
		if p.lo == 0 {
			in := ptg.NewInterner()
			if err := in.ImportKeys(0, p.count, p.list); err == nil &&
				(in.Size() != p.count || !bytes.Equal(in.AppendKeys(nil, 0, ptg.ViewID(p.count)), p.list)) {
				t.Fatalf("imported %d keys into an interner of size %d that does not export them back", p.count, in.Size())
			}
		}
		again := encode(p)
		p2, err := decode(again)
		if err != nil {
			t.Fatalf("re-encoded page does not decode: %v", err)
		}
		if p2.lo != p.lo || p2.count != p.count || !bytes.Equal(p2.list, p.list) {
			t.Fatalf("views changed across a round trip: [%d, +%d) vs [%d, +%d)", p.lo, p.count, p2.lo, p2.count)
		}
		fr, fr2 := p.fr, p2.fr
		if !slices.Equal(fr.ids, fr2.ids) || !slices.Equal(fr.heard, fr2.heard) ||
			!slices.Equal(fr.parentOf, fr2.parentOf) || !slices.Equal(fr.rootOf, fr2.rootOf) {
			t.Fatal("columns changed across a round trip")
		}
		for i := range fr.gs {
			if !fr.gs[i].Equal(fr2.gs[i]) {
				t.Fatalf("graph of item %d changed across a round trip", i)
			}
		}
		if !bytes.Equal(encode(p2), again) {
			t.Fatal("re-encoding a decoded page is not a fixed point")
		}
	})
}
