package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"sort"
	"strings"

	"topocon/internal/graph"
	"topocon/internal/ma"
	"topocon/internal/scenario"
)

// ---------------------------------------------------------------------------
// deep-session inputs

// DeepSession is one Analyzer session of the deep-session workload.
type DeepSession struct {
	Name       string
	Adv        *ma.Oblivious
	Horizon    int
	NoSymmetry bool
	// Order is the automorphism-group order the session quotients by (1
	// under NoSymmetry).
	Order int
	// FullRuns is d^n·k^h, the full prefix space at the final horizon.
	FullRuns int
}

// Anchor session names; their traced session times are per-layer metrics.
const (
	anchorStar4     = "star4"
	anchorStar4Full = "star4-full"
	anchorLossy3    = "lossy3"
)

// anchorSessions returns the three fixed sessions: lossy-star-4 at horizon 7
// quotiented by its S3 automorphism group and again on the full space, and
// lossy3 at horizon 10 (order-2 group, impossible via pump certificate).
func anchorSessions(root string) ([]DeepSession, error) {
	sc, err := scenario.Load(filepath.Join(root, "scenarios", "lossy-star-4.json"))
	if err != nil {
		return nil, err
	}
	star, ok := ma.Normalize(sc.Adversary).(*ma.Oblivious)
	if !ok {
		return nil, fmt.Errorf("lossy-star-4 is not oblivious")
	}
	lossy3 := ma.LossyLink3()
	return []DeepSession{
		{Name: anchorStar4, Adv: star, Horizon: 7, Order: ma.Automorphisms(star).Order(), FullRuns: fullRuns(star, 7)},
		{Name: anchorStar4Full, Adv: star, Horizon: 7, NoSymmetry: true, Order: 1, FullRuns: fullRuns(star, 7)},
		{Name: anchorLossy3, Adv: lossy3, Horizon: 10, Order: ma.Automorphisms(lossy3).Order(), FullRuns: fullRuns(lossy3, 10)},
	}, nil
}

// inputDomain is the benchmark's consensus input domain (the default).
const inputDomain = 2

func fullRuns(o *ma.Oblivious, h int) int {
	return int(math.Pow(inputDomain, float64(o.N())) * math.Pow(float64(len(o.Graphs())), float64(h)))
}

// deepSlot is one generated session's shape: process count, the subgroup
// of leaf permutations (process 1 is the centre) its graph set is closed
// under, the graph count k and the horizon h. The slot list fixes the mix
// and the full-space sizes 2^n·k^h (all in 2^16.6..2^18) for every seed:
// group orders 1, 2 and 6 each appear three times.
//
// A slot also fixes its cost, so that a cycle of sessions costs about the
// same on every seed. Full-space runs alone do not: the interned views a
// session builds, which set its extension cost, ranged from 0.05 to 5.5
// per full-space run between candidates of one shape, and with six graphs
// on four processes the certificate search took anywhere from 10 ms to
// over a second. The shapes keep that search to tens of milliseconds, and
// set-up keeps a candidate only if a NoSymmetry session two horizons short
// of h ends with views per full-space run within [lo, hi], a band around
// the shape's common value. That ratio differs from the one at h by a few
// percent and costs a tenth of the session to find.
type deepSlot struct {
	n, order, k, h int
	lo, hi         float64
}

var deepSlots = []deepSlot{
	{n: 3, order: 1, k: 3, h: 9, lo: 2.1, hi: 3.0},
	{n: 4, order: 1, k: 3, h: 8, lo: 2.5, hi: 4.0},
	{n: 3, order: 1, k: 4, h: 7, lo: 1.4, hi: 1.8},
	{n: 3, order: 2, k: 4, h: 7, lo: 1.4, hi: 1.9},
	{n: 4, order: 2, k: 3, h: 8, lo: 3.1, hi: 4.3},
	{n: 3, order: 2, k: 3, h: 9, lo: 2.2, hi: 2.9},
	{n: 4, order: 6, k: 3, h: 8, lo: 1.2, hi: 2.3},
	{n: 4, order: 6, k: 3, h: 8, lo: 1.2, hi: 2.3},
	{n: 4, order: 6, k: 4, h: 7, lo: 1.0, hi: 1.4},
}

// bandHorizon is the horizon of the session whose views the band bounds.
func (slot deepSlot) bandHorizon() int { return slot.h - 2 }

// inBand reports whether a NoSymmetry session that ended with views
// interned views at the band horizon, where the full space holds fullRuns
// runs, has the slot's cost.
func (slot deepSlot) inBand(views, fullRuns int) bool {
	r := float64(views) / float64(fullRuns)
	return r >= slot.lo && r <= slot.hi
}

// deepCandidates returns the candidate generator of slot i: an endless,
// seed-determined sequence of oblivious adversaries of the slot's shape —
// k graphs, closed under the slot's leaf-permutation group, whose detected
// automorphism group has exactly that order. Set-up keeps the first
// candidate that is still mixed at horizon h, impossible, and within the
// slot's band of views.
func deepCandidates(seed int64, i int) func() DeepSession {
	slot := deepSlots[i]
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(1000+i)))
	attempt := 0
	return func() DeepSession {
		for {
			attempt++
			group := leafGroup(rng, slot)
			seen := map[string]bool{}
			var set []graph.Graph
			for len(set) < slot.k {
				g := randomGraph(rng, slot.n, 0.3)
				for _, perm := range group {
					r := g.Relabel(perm)
					if !seen[r.Key()] {
						seen[r.Key()] = true
						set = append(set, r)
					}
				}
			}
			if len(set) != slot.k {
				continue
			}
			name := fmt.Sprintf("gen%d-n%d-g%d-%d", i, slot.n, slot.order, attempt)
			adv, err := ma.NewOblivious(name, set)
			if err != nil || ma.Automorphisms(adv).Order() != slot.order {
				continue
			}
			return DeepSession{Name: name, Adv: adv, Horizon: slot.h, Order: slot.order, FullRuns: fullRuns(adv, slot.h)}
		}
	}
}

// leafGroup returns the permutations of the slot's leaf group: identity,
// a random transposition of two leaves, or all permutations of leaves 2..4.
func leafGroup(rng *rand.Rand, slot deepSlot) [][]int {
	id := make([]int, slot.n)
	for p := range id {
		id[p] = p
	}
	switch slot.order {
	case 1:
		return [][]int{id}
	case 2:
		a := 1 + rng.IntN(slot.n-1)
		b := 1 + rng.IntN(slot.n-2)
		if b >= a {
			b++
		}
		swap := append([]int(nil), id...)
		swap[a], swap[b] = b, a
		return [][]int{id, swap}
	default: // 6: S3 on leaves 1..3 of a 4-process system
		var out [][]int
		for _, leaves := range [][]int{{1, 2, 3}, {1, 3, 2}, {2, 1, 3}, {2, 3, 1}, {3, 1, 2}, {3, 2, 1}} {
			out = append(out, []int{0, leaves[0], leaves[1], leaves[2]})
		}
		return out
	}
}

// randomGraph draws each directed edge independently with probability p.
func randomGraph(rng *rand.Rand, n int, p float64) graph.Graph {
	g := graph.New(n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b && rng.Float64() < p {
				g = g.AddEdge(a, b)
			}
		}
	}
	return g
}

// ---------------------------------------------------------------------------
// svc job streams

// Doc classes of the svc stream.
const (
	classFresh   = "fresh"    // a new light scenario
	classHeavy   = "heavy"    // a new template of two cells of 10^4..10^5 runs
	classTmpl    = "template" // a new template of 2..6 light cells
	classRepeat  = "repeat"   // byte-identical to an earlier scenario doc
	classRespell = "respell"  // algebraic respelling: same sweep key
	classRelabel = "relabel"  // process relabelling: a different key today
)

// Doc is one job document of the svc stream.
type Doc struct {
	Index    int
	Class    string
	Template bool
	Cells    int
	// Ref is the index of the document a repeat, respelling or relabelling
	// derives from (-1 for new documents); all three must receive its
	// verdict.
	Ref  int
	Body []byte
}

// blockClasses is the class mix of every block of 20 consecutive jobs:
// 70% scenarios, 30% templates; 20% exact repeats, 10% respellings, 10%
// relabellings. One job per block is a heavy template, whose two cells are
// about 5% of the block's ~36 cells; keeping both in one job puts heavy
// jobs at 5%, so job_ms.p90 falls inside the light jobs' distribution
// rather than in the gap between the two.
var blockClasses = []string{
	classFresh, classFresh, classFresh, classFresh, classFresh, classFresh,
	classHeavy,
	classTmpl, classTmpl, classTmpl, classTmpl, classTmpl,
	classRepeat, classRepeat, classRepeat, classRepeat,
	classRespell, classRespell,
	classRelabel, classRelabel,
}

// Heavy cells are 3-process oblivious adversaries over six graphs, one of
// them the empty graph (so every horizon stays mixed and each session runs
// to its last horizon), at horizons 4 and 5: 10,368 and 62,208 runs.
const (
	heavyGraphs  = 6
	heavyHorizon = 4
)

// Light documents are stratified so that every block of the stream costs
// about the same on every seed: new scenarios rotate through the corpus
// operators and through three size buckets (full-space runs at their
// horizon), templates through the three template kinds and three buckets
// of total runs over their cells. A bucket is [lo, hi).
var (
	freshBuckets = [][2]int{{1, 256}, {256, 1024}, {1024, 4097}}
	tmplBuckets  = [][2]int{{1, 1024}, {1024, 4096}, {4096, 12289}}
	tmplCycle    = []int{0, 1, 1, 2, 2}
)

// lightMaxRuns bounds the full-space size of every light cell.
const lightMaxRuns = 4096

// maxDrawAttempts bounds the draws for one operator and bucket before the
// generator moves on to the next operator.
const maxDrawAttempts = 200

// Stream returns the first count documents of the seed's svc job stream.
// The same seed gives byte-identical documents.
func Stream(seed int64, count int) ([]Doc, error) {
	rng := rand.New(rand.NewPCG(uint64(seed), 7))
	g := &streamGen{rng: rng}
	var docs []Doc
	for block := 0; len(docs) < count; block++ {
		classes := append([]string(nil), blockClasses...)
		rng.Shuffle(len(classes), func(a, b int) { classes[a], classes[b] = classes[b], classes[a] })
		if block == 0 {
			// Derived documents need an earlier source: open the stream
			// with the new ones.
			sort.SliceStable(classes, func(a, b int) bool { return derived(classes[b]) && !derived(classes[a]) })
		}
		for _, class := range classes {
			if len(docs) == count {
				break
			}
			d, err := g.doc(len(docs), class, docs)
			if err != nil {
				return nil, err
			}
			docs = append(docs, d)
		}
	}
	return docs, nil
}

func derived(class string) bool {
	return class == classRepeat || class == classRespell || class == classRelabel
}

type streamGen struct {
	rng *rand.Rand
	// fresh and tmpl count the new light scenarios and templates drawn so
	// far, selecting their operator, kind and size bucket.
	fresh, tmpl int
	// light are the indices of new light scenario docs (respelling and
	// relabelling sources); scenarios of every new scenario doc (repeat
	// sources).
	light, scenarios []int
}

func (g *streamGen) doc(i int, class string, docs []Doc) (Doc, error) {
	d := Doc{Index: i, Class: class, Ref: -1, Cells: 1}
	var spec map[string]any
	switch class {
	case classFresh:
		spec = g.lightScenario(fmt.Sprintf("s%d", i), g.fresh)
		g.fresh++
		g.light = append(g.light, i)
		g.scenarios = append(g.scenarios, i)
	case classHeavy:
		spec = g.heavyTemplate(fmt.Sprintf("heavy%d", i))
		d.Template, d.Cells = true, 2
	case classTmpl:
		spec, d.Cells = g.template(fmt.Sprintf("t%d", i), g.tmpl)
		d.Template = true
		g.tmpl++
	case classRepeat:
		d.Ref = g.scenarios[g.rng.IntN(len(g.scenarios))]
		d.Body = docs[d.Ref].Body
		return d, nil
	case classRespell, classRelabel:
		d.Ref = g.light[g.rng.IntN(len(g.light))]
		var src map[string]any
		if err := json.Unmarshal(docs[d.Ref].Body, &src); err != nil {
			return d, err
		}
		if class == classRespell {
			spec = g.respell(src, fmt.Sprintf("r%d", i))
		} else {
			spec = g.relabel(src, fmt.Sprintf("l%d", i))
		}
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return d, err
	}
	d.Body = body
	return d, nil
}

// graphRefs renders a graph set as inline edge lists.
func graphRefs(set []graph.Graph) []string {
	out := make([]string, len(set))
	for i, g := range set {
		out[i] = strings.Trim(g.String(), "[]")
	}
	return out
}

// graphSet draws k distinct graphs on n processes.
func (g *streamGen) graphSet(n, k int) []graph.Graph {
	seen := map[string]bool{}
	var set []graph.Graph
	for len(set) < k {
		c := randomGraph(g.rng, n, 0.5)
		if !seen[c.Key()] {
			seen[c.Key()] = true
			set = append(set, c)
		}
	}
	return set
}

func obliviousExpr(set []graph.Graph) map[string]any {
	return map[string]any{"op": "oblivious", "graphs": graphRefs(set)}
}

// rootedSet draws k distinct graphs with a single root component, as the
// stable set of eventually-stable adversaries requires.
func (g *streamGen) rootedSet(n, k int) []graph.Graph {
	var set []graph.Graph
	seen := map[string]bool{}
	for len(set) < k {
		c := randomGraph(g.rng, n, 0.5)
		if _, ok := c.SingleRoot(); ok && !seen[c.Key()] {
			seen[c.Key()] = true
			set = append(set, c)
		}
	}
	return set
}

// lightOps are the corpus operators of light cells.
var lightOps = []string{"oblivious", "loss-bounded", "committed-suffix", "eventually-stable", "window-stable", "concat", "intersect", "filter"}

// lightExpr draws one adversary expression over the given corpus operator
// at n = 2 or 3.
func (g *streamGen) lightExpr(op string) (int, map[string]any) {
	switch op {
	case "oblivious":
		n := 2 + g.rng.IntN(2)
		return n, obliviousExpr(g.graphSet(n, 2+g.rng.IntN(2)))
	case "loss-bounded":
		if g.rng.IntN(2) == 0 {
			return 3, map[string]any{"op": op, "f": g.rng.IntN(2)}
		}
		return 2, map[string]any{"op": op, "f": g.rng.IntN(3)}
	case "committed-suffix":
		n := 2 + g.rng.IntN(2)
		free := g.graphSet(n, 2+g.rng.IntN(3))
		return n, map[string]any{"op": op, "free": graphRefs(free), "commit": graphRefs(free[:1+g.rng.IntN(len(free))]), "deadline": 1 + g.rng.IntN(5)}
	case "eventually-stable":
		return 2, map[string]any{"op": op, "chaos": graphRefs(g.graphSet(2, 1+g.rng.IntN(2))), "stable": graphRefs(g.rootedSet(2, 1+g.rng.IntN(2))), "window": 1 + g.rng.IntN(2)}
	case "window-stable":
		return 2, map[string]any{"op": op, "arg": obliviousExpr(g.graphSet(2, 2+g.rng.IntN(2))), "window": 2 + g.rng.IntN(2)}
	case "concat":
		n := 2 + g.rng.IntN(2)
		first := obliviousExpr(g.graphSet(n, 1+g.rng.IntN(2)))
		return n, map[string]any{"op": op, "first": first, "rounds": 1 + g.rng.IntN(2), "then": obliviousExpr(g.graphSet(n, 2))}
	case "intersect":
		n := 2 + g.rng.IntN(2)
		a := g.graphSet(n, 3+g.rng.IntN(2))
		b := append(append([]graph.Graph(nil), a[:1+g.rng.IntN(3)]...), g.graphSet(n, 2)...)
		return n, map[string]any{"op": op, "args": []any{obliviousExpr(a), obliviousExpr(b)}}
	default: // filter
		preds := []string{"strongly-connected", "rooted", "nonsplit", "star", "min-out-degree"}
		base := map[string]any{"op": "loss-bounded", "f": 1 + g.rng.IntN(2)}
		if g.rng.IntN(2) == 0 {
			base = obliviousExpr(g.graphSet(3, 3+g.rng.IntN(4)))
		}
		e := map[string]any{"op": op, "arg": base, "pred": preds[g.rng.IntN(len(preds))]}
		if e["pred"] == "min-out-degree" {
			e["degree"] = 1
		}
		return 3, e
	}
}

// spaceRuns is the full prefix-space size of a scenario's only cell at its
// horizon, or -1 if the document does not parse.
func spaceRuns(spec map[string]any) int {
	body, err := json.Marshal(spec)
	if err != nil {
		return -1
	}
	sc, err := scenario.Parse(body)
	if err != nil {
		return -1
	}
	h := sc.Options.MaxHorizon
	if h == 0 {
		h = 7
	}
	return int(math.Pow(inputDomain, float64(sc.Adversary.N()))) * ma.CountPrefixes(sc.Adversary, h)
}

// lightScenario draws the j-th new light scenario: a valid document over
// operator j mod 8 whose full space, at a horizon in 3..7, lies in size
// bucket j mod 3.
func (g *streamGen) lightScenario(name string, j int) map[string]any {
	bucket := freshBuckets[j%len(freshBuckets)]
	for op := j; ; op++ {
		for attempt := 0; attempt < maxDrawAttempts; attempt++ {
			n, expr := g.lightExpr(lightOps[op%len(lightOps)])
			spec := map[string]any{"name": name, "n": n, "adversary": expr, "check": map[string]any{"maxHorizon": 3 + g.rng.IntN(5)}}
			if r := spaceRuns(spec); r >= bucket[0] && r < bucket[1] {
				return spec
			}
		}
	}
}

// heavyTemplate draws a heavy template: six distinct 3-process graphs,
// the empty one among them, swept over horizons 4 and 5.
func (g *streamGen) heavyTemplate(name string) map[string]any {
	set := []graph.Graph{graph.New(3)}
	seen := map[string]bool{set[0].Key(): true}
	for len(set) < heavyGraphs {
		c := randomGraph(g.rng, 3, 0.5)
		if !seen[c.Key()] {
			seen[c.Key()] = true
			set = append(set, c)
		}
	}
	return map[string]any{"name": name, "params": map[string]any{"h": []int{heavyHorizon, heavyHorizon + 1}}, "n": 3, "adversary": obliviousExpr(set), "check": map[string]any{"maxHorizon": "${h}"}}
}

// template draws the j-th light template, of 2..6 cells: kind j mod 3 —
// a horizon sweep over a light scenario, a loss-budget sweep, or a
// stability-window sweep — with its cells' total full-space runs in the
// bucket tmplCycle selects.
func (g *streamGen) template(name string, j int) (map[string]any, int) {
	bucket := tmplBuckets[tmplCycle[j%len(tmplCycle)]]
	for op := j / 3; ; op++ {
		for attempt := 0; attempt < maxDrawAttempts; attempt++ {
			var spec map[string]any
			var runs []int
			switch j % 3 {
			case 0:
				// One parse sizes every horizon; several horizon subsets
				// are tried against the bucket before a new expression.
				n, expr := g.lightExpr(lightOps[op%len(lightOps)])
				byH := sweepRuns(map[string]any{"name": name, "n": n, "adversary": expr}, []int{3, 4, 5, 6, 7})
				if byH == nil {
					continue
				}
				for try := 0; try < 8; try++ {
					hs := g.rng.Perm(5)[:2+g.rng.IntN(4)]
					sort.Ints(hs)
					runs = runs[:0]
					for i := range hs {
						runs = append(runs, byH[hs[i]])
						hs[i] += 3
					}
					spec = map[string]any{"name": name, "params": map[string]any{"h": hs}, "n": n, "adversary": expr, "check": map[string]any{"maxHorizon": "${h}"}}
					if t := lightTotal(runs); t >= bucket[0] && t < bucket[1] {
						break
					}
				}
			case 1:
				cells, h := 2+g.rng.IntN(4), 3+g.rng.IntN(4)
				spec = map[string]any{"name": name, "params": map[string]any{"f": fmt.Sprintf("0..%d", cells-1)}, "n": 2, "adversary": map[string]any{"op": "loss-bounded", "f": "${f}"}, "check": map[string]any{"maxHorizon": h}}
				for f := 0; f < cells; f++ {
					// A 2-process round loses at most two messages: 1, 3
					// and 4 graphs for budgets 0, 1 and ≥ 2.
					k := []int{1, 3, 4}[min(f, 2)]
					runs = append(runs, 4*int(math.Pow(float64(k), float64(h))))
				}
			default:
				cells, h := 2+g.rng.IntN(2), 4+g.rng.IntN(3)
				arg := obliviousExpr(g.graphSet(2, 2+g.rng.IntN(2)))
				spec = map[string]any{"name": name, "params": map[string]any{"w": fmt.Sprintf("2..%d", cells+1)}, "n": 2, "adversary": map[string]any{"op": "window-stable", "arg": arg, "window": "${w}"}, "check": map[string]any{"maxHorizon": h}}
				for w := 2; w <= cells+1; w++ {
					runs = append(runs, spaceRuns(map[string]any{"name": name, "n": 2, "adversary": map[string]any{"op": "window-stable", "arg": arg, "window": w}, "check": map[string]any{"maxHorizon": h}}))
				}
			}
			if t := lightTotal(runs); t >= bucket[0] && t < bucket[1] && templateParses(spec) {
				return spec, len(runs)
			}
		}
	}
}

// lightTotal sums cell sizes, or returns -1 if a cell is not light.
func lightTotal(runs []int) int {
	total := 0
	for _, r := range runs {
		if r <= 0 || r > lightMaxRuns {
			return -1
		}
		total += r
	}
	return total
}

// sweepRuns returns the full-space size of a scenario at each horizon, or
// nil if it does not parse.
func sweepRuns(spec map[string]any, horizons []int) []int {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil
	}
	sc, err := scenario.Parse(body)
	if err != nil {
		return nil
	}
	out := make([]int, len(horizons))
	for i, h := range horizons {
		out[i] = int(math.Pow(inputDomain, float64(sc.Adversary.N()))) * ma.CountPrefixes(sc.Adversary, h)
	}
	return out
}

// templateParses reports whether the template parses and expands.
func templateParses(spec map[string]any) bool {
	body, err := json.Marshal(spec)
	if err != nil {
		return false
	}
	tpl, err := scenario.ParseTemplate(body)
	if err != nil {
		return false
	}
	_, err = tpl.Expand()
	return err == nil
}

// respell rewrites the adversary into a spelling ma.Normalize maps back to
// it: an intersection with the unrestricted adversary, or a zero-round
// concatenation behind it.
func (g *streamGen) respell(src map[string]any, name string) map[string]any {
	out := cloneJSON(src).(map[string]any)
	out["name"] = name
	expr := out["adversary"]
	if g.rng.IntN(2) == 0 {
		out["adversary"] = map[string]any{"op": "intersect", "args": []any{expr, map[string]any{"op": "unrestricted"}}}
	} else {
		out["adversary"] = map[string]any{"op": "concat", "first": map[string]any{"op": "unrestricted"}, "rounds": 0, "then": expr}
	}
	return out
}

// relabel renames the processes of every graph in the document by a
// random non-identity permutation.
func (g *streamGen) relabel(src map[string]any, name string) map[string]any {
	out := cloneJSON(src).(map[string]any)
	out["name"] = name
	n := int(out["n"].(float64))
	perm := g.rng.Perm(n)
	for isIdentity(perm) {
		perm = g.rng.Perm(n)
	}
	relabelGraphs(out["adversary"], n, perm)
	return out
}

func isIdentity(perm []int) bool {
	for i, p := range perm {
		if i != p {
			return false
		}
	}
	return true
}

// relabelGraphs rewrites, in place, every graph reference under an
// expression node.
func relabelGraphs(node any, n int, perm []int) {
	switch x := node.(type) {
	case map[string]any:
		for k, v := range x {
			switch k {
			case "graphs", "chaos", "stable", "free", "commit":
				refs := v.([]any)
				for i, r := range refs {
					gr, err := graph.Parse(n, r.(string))
					if err != nil {
						panic(fmt.Sprintf("relabelling generated graph %q: %v", r, err))
					}
					refs[i] = strings.Trim(gr.Relabel(perm).String(), "[]")
				}
			default:
				relabelGraphs(v, n, perm)
			}
		}
	case []any:
		for _, v := range x {
			relabelGraphs(v, n, perm)
		}
	}
}

func cloneJSON(v any) any {
	switch x := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, e := range x {
			out[k] = cloneJSON(e)
		}
		return out
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = cloneJSON(e)
		}
		return out
	default:
		return v
	}
}
