package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"topocon/internal/ma"
	"topocon/internal/scenario"
	"topocon/internal/sweep"
)

func TestStreamIsDeterministic(t *testing.T) {
	a, err := Stream(7, 300)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Stream(7, 300)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !bytes.Equal(a[i].Body, b[i].Body) || a[i].Class != b[i].Class || a[i].Ref != b[i].Ref {
			t.Fatalf("doc %d differs between two streams of seed 7", i)
		}
	}
	c, err := Stream(8, 300)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if bytes.Equal(a[i].Body, c[i].Body) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 7 and 8 gave the same stream")
	}
}

// TestStreamMix checks, for several seeds, the stated shares: 70%
// scenarios and 30% templates, 20% repeats, 10% respellings, 10%
// relabellings, about 5% heavy cells of 10^4..10^5 runs; and that every
// derived document is what its class says.
func TestStreamMix(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		docs, err := Stream(seed, 400)
		if err != nil {
			t.Fatal(err)
		}
		classes := map[string]int{}
		templates, cells, heavyCells := 0, 0, 0
		for _, d := range docs {
			classes[d.Class]++
			cells += d.Cells
			if d.Template {
				templates++
			}
			checkDoc(t, seed, d, docs)
			if d.Class == classHeavy {
				heavyCells += d.Cells
			}
		}
		share := func(n int) float64 { return float64(n) / float64(len(docs)) }
		for class, want := range map[string]float64{classRepeat: 0.2, classRespell: 0.1, classRelabel: 0.1} {
			if got := share(classes[class]); got != want {
				t.Errorf("seed %d: %s share %.3f, want %.2f", seed, class, got, want)
			}
		}
		if got := share(templates); got != 0.3 {
			t.Errorf("seed %d: template share %.3f, want 0.30", seed, got)
		}
		if got := float64(heavyCells) / float64(cells); got < 0.04 || got > 0.07 {
			t.Errorf("seed %d: heavy cell share %.3f, want about 0.05", seed, got)
		}
	}
}

func checkDoc(t *testing.T, seed int64, d Doc, docs []Doc) {
	t.Helper()
	keys, err := docKeys(d.Body)
	if err != nil {
		t.Fatalf("seed %d doc %d (%s) does not parse: %v", seed, d.Index, d.Class, err)
	}
	if len(keys) != d.Cells {
		t.Errorf("seed %d doc %d: %d cells, recorded %d", seed, d.Index, len(keys), d.Cells)
	}
	if d.Class == classHeavy {
		tpl, _ := scenario.ParseTemplate(d.Body)
		expanded, _ := tpl.Expand()
		for _, c := range expanded {
			runs := int(math.Pow(inputDomain, float64(c.Scenario.Adversary.N()))) * ma.CountPrefixes(c.Scenario.Adversary, c.Scenario.Options.MaxHorizon)
			if runs < 10_000 || runs > 100_000 {
				t.Errorf("seed %d doc %d: heavy cell of %d runs", seed, d.Index, runs)
			}
		}
	}
	if d.Ref < 0 {
		return
	}
	src := docs[d.Ref]
	if src.Index >= d.Index || src.Ref >= 0 || src.Template {
		t.Fatalf("seed %d doc %d (%s) derives from doc %d (%s)", seed, d.Index, d.Class, src.Index, src.Class)
	}
	srcKeys, _ := docKeys(src.Body)
	switch d.Class {
	case classRepeat:
		if !bytes.Equal(d.Body, src.Body) {
			t.Errorf("seed %d doc %d: repeat is not byte-identical to doc %d", seed, d.Index, src.Index)
		}
	case classRespell:
		if bytes.Equal(d.Body, src.Body) || keys[0] != srcKeys[0] {
			t.Errorf("seed %d doc %d: respelling of doc %d is not a new spelling of the same key", seed, d.Index, src.Index)
		}
	case classRelabel:
		var a, b map[string]any
		_ = json.Unmarshal(d.Body, &a)
		_ = json.Unmarshal(src.Body, &b)
		if a["n"] != b["n"] {
			t.Errorf("seed %d doc %d: relabelling changed the process count", seed, d.Index)
		}
	}
}

// docKeys parses a document and returns its cells' sweep keys.
func docKeys(body []byte) ([]string, error) {
	var cells []*scenario.Scenario
	if scenario.IsTemplate(body) {
		tpl, err := scenario.ParseTemplate(body)
		if err != nil {
			return nil, err
		}
		expanded, err := tpl.Expand()
		if err != nil {
			return nil, err
		}
		for _, c := range expanded {
			cells = append(cells, c.Scenario)
		}
	} else {
		sc, err := scenario.Parse(body)
		if err != nil {
			return nil, err
		}
		cells = append(cells, sc)
	}
	var keys []string
	for _, c := range cells {
		k, err := sweep.KeyFor(c.Adversary, c.Options)
		if err != nil {
			return nil, err
		}
		keys = append(keys, k.String())
	}
	return keys, nil
}

// TestDeepCandidates checks that deep-session candidates are
// seed-determined, have the slot's shape, and that every seed's slots
// carry group orders 1, 2 and 6 with full spaces in 2^16..2^18.
func TestDeepCandidates(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		orders := map[int]int{}
		for i, slot := range deepSlots {
			a, b := deepCandidates(seed, i)(), deepCandidates(seed, i)()
			if a.Name != b.Name || len(a.Adv.Graphs()) != len(b.Adv.Graphs()) || ma.Fingerprint(a.Adv, 2) != ma.Fingerprint(b.Adv, 2) {
				t.Fatalf("seed %d slot %d: candidates differ between two generators", seed, i)
			}
			if got := ma.Automorphisms(a.Adv).Order(); got != slot.order {
				t.Errorf("seed %d slot %d: group order %d, want %d", seed, i, got, slot.order)
			}
			orders[a.Order]++
			if want := int(math.Pow(2, float64(slot.n)) * math.Pow(float64(slot.k), float64(slot.h))); a.FullRuns != want || want < 1<<16 || want > 1<<18 {
				t.Errorf("seed %d slot %d: %d full runs, want 2^n·k^h = %d within 2^16..2^18", seed, i, a.FullRuns, want)
			}
		}
		for _, o := range []int{1, 2, 6} {
			if orders[o] == 0 {
				t.Errorf("seed %d: no session with group order %d", seed, o)
			}
		}
	}
}

// TestDeepBands checks that every slot's band of views admits candidates
// often enough for set-up to finish quickly on any seed: within
// maxBandDraws draws of the slot's generator, on each of a few seeds.
func TestDeepBands(t *testing.T) {
	const maxBandDraws = 40
	ctx := context.Background()
	for seed := int64(1); seed <= 3; seed++ {
		for i, slot := range deepSlots {
			next := deepCandidates(seed, i)
			found := false
			for d := 0; d < maxBandDraws && !found; d++ {
				s := next()
				s.NoSymmetry, s.Horizon = true, slot.bandHorizon()
				out, err := runSession(ctx, s, nil)
				if err != nil {
					t.Fatal(err)
				}
				found = slot.inBand(out.Views, fullRuns(s.Adv, s.Horizon))
			}
			if !found {
				t.Errorf("seed %d slot %d: no candidate in band [%g, %g] within %d draws", seed, i, slot.lo, slot.hi, maxBandDraws)
			}
		}
	}
}
