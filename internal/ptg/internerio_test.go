package ptg

import (
	"bytes"
	"testing"
)

// buildSampleInterner interns a mix of leaves and nodes and returns the
// assigned IDs in insertion order.
func buildSampleInterner(t *testing.T) (*Interner, []ViewID) {
	t.Helper()
	in := NewInterner()
	var ids []ViewID
	for p := 0; p < 4; p++ {
		for x := 0; x < 3; x++ {
			ids = append(ids, in.Leaf(p, x))
		}
	}
	for p := 0; p < 4; p++ {
		ids = append(ids, in.Node(p, []int{0, p}, []ViewID{ids[0], ids[p*3]}))
		ids = append(ids, in.Node(p, []int{0, 1, 2, 3}, ids[:4]))
	}
	return in, ids
}

// TestExportImportRoundTrip exports the arena in consecutive ID ranges
// (as successive checkpoint pages do) and imports them range by range into
// a fresh interner: re-interning the same structures must then reproduce
// the identical IDs without growing the interner, and the imported
// interner must export the same bytes.
func TestExportImportRoundTrip(t *testing.T) {
	in, ids := buildSampleInterner(t)
	size := ViewID(in.Size())
	got := NewInterner()
	for _, r := range [][2]ViewID{{0, 0}, {0, 5}, {5, 12}, {12, 12}, {12, size}} {
		if err := got.ImportKeys(r[0], int(r[1]-r[0]), in.AppendKeys(nil, r[0], r[1])); err != nil {
			t.Fatalf("ImportKeys[%d,%d): %v", r[0], r[1], err)
		}
	}
	if got.Size() != in.Size() {
		t.Fatalf("imported size %d, want %d", got.Size(), in.Size())
	}
	if !bytes.Equal(got.AppendKeys(nil, 0, size), in.AppendKeys(nil, 0, size)) {
		t.Fatal("the imported interner exports different keys")
	}
	var again []ViewID
	for p := 0; p < 4; p++ {
		for x := 0; x < 3; x++ {
			again = append(again, got.Leaf(p, x))
		}
	}
	for p := 0; p < 4; p++ {
		again = append(again, got.Node(p, []int{0, p}, []ViewID{again[0], again[p*3]}))
		again = append(again, got.Node(p, []int{0, 1, 2, 3}, again[:4]))
	}
	if got.Size() != in.Size() {
		t.Fatalf("re-interning known views grew the interner to %d (want %d)", got.Size(), in.Size())
	}
	for i := range ids {
		if again[i] != ids[i] {
			t.Fatalf("id %d: imported interner assigned %d, original %d", i, again[i], ids[i])
		}
	}
}

// TestImportRejectsCorruptBlobs pins that a key list which does not
// continue the interner densely — a gap, an overlap, an empty or a
// duplicate key — or is truncated or followed by stray bytes is refused.
func TestImportRejectsCorruptBlobs(t *testing.T) {
	in, _ := buildSampleInterner(t)
	size := ViewID(in.Size())
	all := in.AppendKeys(nil, 0, size)
	first := in.AppendKeys(nil, 0, 1)
	cases := map[string]func() error{
		"gap": func() error { return NewInterner().ImportKeys(1, int(size-1), in.AppendKeys(nil, 1, size)) },
		"overlap": func() error {
			fresh := NewInterner()
			if err := fresh.ImportKeys(0, 5, in.AppendKeys(nil, 0, 5)); err != nil {
				t.Fatal(err)
			}
			return fresh.ImportKeys(4, int(size-4), in.AppendKeys(nil, 4, size))
		},
		"empty-key":     func() error { return NewInterner().ImportKeys(0, 2, append(bytes.Clone(first), 0)) },
		"duplicate-key": func() error { return NewInterner().ImportKeys(0, 2, append(bytes.Clone(first), first...)) },
		"truncated":     func() error { return NewInterner().ImportKeys(0, int(size), all[:len(all)-1]) },
		"short-count":   func() error { return NewInterner().ImportKeys(0, int(size-1), all) },
	}
	for name, importBad := range cases {
		if err := importBad(); err == nil {
			t.Errorf("%s: ImportKeys accepted a corrupt list", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("AppendKeys beyond Size did not panic")
		}
	}()
	in.AppendKeys(nil, 0, size+1)
}
