// Package baseline implements the classic combinatorial counterparts the
// paper compares against: automated bivalence proofs in the style of
// Santoro-Widmayer [21] / FLP [10] (Section 6.1), the heard-set broadcast
// automaton underlying oblivious broadcastability analysis, and flooding
// consensus baselines (package sim hosts the runnable algorithms).
package baseline

import (
	"fmt"
	"strings"

	"topocon/internal/graph"
	"topocon/internal/ma"
)

// BivalenceCertificate proves consensus impossibility for an oblivious
// adversary: a self-sustaining chain schema in the agreement-set
// abstraction.
//
// A chain at horizon t is a sequence of admissible runs r_0 .. r_k, all with
// t rounds, where consecutive runs are indistinguishable to some process,
// r_0 is v-valent and r_k is w-valent (v ≠ w). The only information about a
// pair of runs that matters for extending it by one round is its agreement
// set A = {q : V_q equal}: appending graphs g to the left run and h to the
// right run yields the new agreement set
//
//	A' = {p : In_p(g) = In_p(h) and In_p(g) ⊆ A}.
//
// A chain survives one round if its elements can pick graphs making every
// consecutive agreement set non-empty; elements may first be duplicated
// (subdivision), which inserts a full-set edge — this is how the classic
// proofs grow their chains. The certificate is an initial chain (over input
// assignments, whose agreement sets are the equal-coordinate sets) that
// lies in the greatest fixpoint of "has a surviving successor chain".
//
// Soundness: by induction on t, a certificate yields, for every horizon, a
// chain of admissible runs connecting differently-valent runs with
// consecutive indistinguishability — i.e. a mixed component at every
// resolution, the forever-bivalent run family of Section 6.1. For a compact
// adversary, König's lemma turns "no horizon separates" into "no algorithm
// decides all runs by any bounded round", so consensus is impossible
// (Corollary 5.6 / Theorem 5.4).
type BivalenceCertificate struct {
	// InitialInputs is the chain of input assignments anchoring the schema.
	InitialInputs [][]int
	// InitialWord is the corresponding agreement-set word.
	InitialWord []uint64
	// Surviving is the number of chain words in the greatest fixpoint.
	Surviving int
}

// String renders the certificate compactly.
func (c *BivalenceCertificate) String() string {
	parts := make([]string, len(c.InitialWord))
	for i, a := range c.InitialWord {
		parts[i] = graph.FormatNodeSet(a)
	}
	return fmt.Sprintf("bivalent chain of %d inputs, agreement word %s (surviving words: %d)",
		len(c.InitialInputs), strings.Join(parts, ","), c.Surviving)
}

// ProveBivalent searches for a bivalence certificate for the oblivious
// adversary over the given input domain, considering chain words of up to
// maxChainLen agreement sets. It returns (certificate, true) when consensus
// is certifiably impossible; (nil, false) means no certificate of that size
// exists (which does not by itself imply solvability).
func ProveBivalent(adv *ma.Oblivious, inputDomain, maxChainLen int) (*BivalenceCertificate, bool) {
	if maxChainLen < 1 || adv.N() > 8 {
		// Agreement sets are encoded as single bytes in word keys.
		return nil, false
	}
	e := newChainEngine(adv, maxChainLen)
	e.computeSurvivors()
	if len(e.surviving) == 0 {
		return nil, false
	}
	inputs, word, ok := e.findAnchoredChain(inputDomain)
	if !ok {
		return nil, false
	}
	return &BivalenceCertificate{
		InitialInputs: inputs,
		InitialWord:   word,
		Surviving:     len(e.surviving),
	}, true
}

// chainEngine computes the greatest fixpoint of surviving chain words.
type chainEngine struct {
	n      int
	full   uint64
	maxLen int
	graphs []graph.Graph
	// update[g][h] maps an agreement set A to the successor agreement set;
	// precomputed as masks: upd(A) = {p : In_p(g)=In_p(h) ⊆ A}.
	surviving map[string]bool
}

func newChainEngine(adv *ma.Oblivious, maxLen int) *chainEngine {
	return &chainEngine{
		n:         adv.N(),
		full:      graph.AllNodes(adv.N()),
		maxLen:    maxLen,
		graphs:    adv.Graphs(),
		surviving: make(map[string]bool),
	}
}

// updateSet computes A' = {p : In_p(g) = In_p(h), In_p(g) ⊆ A}.
func updateSet(g, h graph.Graph, a uint64) uint64 {
	var out uint64
	for p := 0; p < g.N(); p++ {
		in := g.In(p)
		if in == h.In(p) && in&^a == 0 {
			out |= 1 << uint(p)
		}
	}
	return out
}

// computeSurvivors iterates S ← {w ∈ S : some successor of w is in S}
// starting from all non-empty-agreement words of length ≤ maxLen, until a
// fixpoint is reached.
func (e *chainEngine) computeSurvivors() {
	var words [][]uint64
	var gen func(prefix []uint64)
	gen = func(prefix []uint64) {
		if len(prefix) > 0 {
			words = append(words, append([]uint64(nil), prefix...))
		}
		if len(prefix) == e.maxLen {
			return
		}
		for a := uint64(1); a <= e.full; a++ {
			gen(append(prefix, a))
		}
	}
	gen(nil)
	for _, w := range words {
		e.surviving[wordKey(w)] = true
	}
	for {
		removed := 0
		for _, w := range words {
			k := wordKey(w)
			if !e.surviving[k] {
				continue
			}
			if !e.hasSurvivingSuccessor(w) {
				delete(e.surviving, k)
				removed++
			}
		}
		if removed == 0 {
			return
		}
	}
}

// hasSurvivingSuccessor reports whether some padded-and-extended version of
// w is currently surviving. Padding inserts full-set symbols (element
// duplication); extension assigns one adversary graph per element and
// updates every edge, requiring all results non-empty and the resulting
// word to be in the surviving set. The search is a DFS over (position in
// padded word, last element graph), with padding decided on the fly.
func (e *chainEngine) hasSurvivingSuccessor(w []uint64) bool {
	type state struct {
		edge   int // next edge of w to consume
		pads   int // padding symbols inserted so far
		lastG  int // index into e.graphs of the previous element's graph
		result []uint64
	}
	var dfs func(st state) bool
	dfs = func(st state) bool {
		if st.edge == len(w) {
			if len(st.result) >= 1 && e.surviving[wordKey(st.result)] {
				return true
			}
			// May still pad at the end.
		}
		if len(st.result) >= e.maxLen {
			return false
		}
		// Option 1: consume the next real edge of w.
		if st.edge < len(w) {
			a := w[st.edge]
			for gi := range e.graphs {
				a2 := updateSet(e.graphs[st.lastG], e.graphs[gi], a)
				if a2 == 0 {
					continue
				}
				if dfs(state{
					edge:   st.edge + 1,
					pads:   st.pads,
					lastG:  gi,
					result: append(st.result, a2),
				}) {
					return true
				}
			}
		}
		// Option 2: insert a padding edge (duplicate the current element).
		if st.pads < e.maxLen { // padding budget bounded by word capacity
			for gi := range e.graphs {
				a2 := updateSet(e.graphs[st.lastG], e.graphs[gi], e.full)
				if a2 == 0 {
					continue
				}
				if dfs(state{
					edge:   st.edge,
					pads:   st.pads + 1,
					lastG:  gi,
					result: append(st.result, a2),
				}) {
					return true
				}
			}
		}
		return false
	}
	// The first element's graph is free.
	for gi := range e.graphs {
		if dfs(state{edge: 0, lastG: gi}) {
			return true
		}
	}
	return false
}

// findAnchoredChain looks for a surviving initial word realized by a chain
// of input assignments from an all-v to an all-w vector (v ≠ w), where the
// edge between consecutive assignments is their equal-coordinate set.
func (e *chainEngine) findAnchoredChain(inputDomain int) ([][]int, []uint64, bool) {
	vectors := allVectors(e.n, inputDomain)
	var inputs [][]int
	var word []uint64
	var dfs func(cur []int) bool
	dfs = func(cur []int) bool {
		if v, valent := valentValue(cur); valent && len(inputs) > 1 {
			if v0, _ := valentValue(inputs[0]); v0 != v && e.surviving[wordKey(word)] {
				return true
			}
		}
		if len(word) == e.maxLen {
			return false
		}
		for _, next := range vectors {
			a := equalCoords(cur, next)
			if a == 0 {
				continue
			}
			inputs = append(inputs, next)
			word = append(word, a)
			if dfs(next) {
				return true
			}
			inputs = inputs[:len(inputs)-1]
			word = word[:len(word)-1]
		}
		return false
	}
	for _, start := range vectors {
		if _, valent := valentValue(start); !valent {
			continue
		}
		inputs = append(inputs[:0], start)
		word = word[:0]
		if dfs(start) {
			out := make([][]int, len(inputs))
			for i := range inputs {
				out[i] = append([]int(nil), inputs[i]...)
			}
			return out, append([]uint64(nil), word...), true
		}
	}
	return nil, nil, false
}

func wordKey(w []uint64) string {
	var sb strings.Builder
	sb.Grow(len(w))
	for _, a := range w {
		sb.WriteByte(byte(a))
	}
	return sb.String()
}

func allVectors(n, domain int) [][]int {
	total := 1
	for i := 0; i < n; i++ {
		total *= domain
	}
	out := make([][]int, 0, total)
	cur := make([]int, n)
	for i := 0; i < total; i++ {
		out = append(out, append([]int(nil), cur...))
		for j := n - 1; j >= 0; j-- {
			cur[j]++
			if cur[j] < domain {
				break
			}
			cur[j] = 0
		}
	}
	return out
}

func valentValue(x []int) (int, bool) {
	for _, v := range x[1:] {
		if v != x[0] {
			return 0, false
		}
	}
	return x[0], true
}

func equalCoords(x, y []int) uint64 {
	var a uint64
	for i := range x {
		if x[i] == y[i] {
			a |= 1 << uint(i)
		}
	}
	return a
}
