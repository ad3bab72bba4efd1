package traversal

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/corpus"
	"repro/internal/grammar"
	"repro/internal/hierarchy"
	"repro/internal/index"
	"repro/internal/sketch"
	"repro/internal/tokensregex"
)

func equivFixture(t *testing.T) (*index.Index, *corpus.Corpus) {
	t.Helper()
	texts := []string{
		"what is the best way to get to the airport",
		"is there a shuttle to the hotel from the airport",
		"what is the best way to order food tonight",
		"can i get a pizza to my room right now",
		"the best way to check in there is online",
		"is uber the fastest way to get downtown",
		"would uber eats be the fastest way to order",
		"the shuttle to the airport leaves at nine",
	}
	c := corpus.New("equiv", "t")
	for i := 0; i < 10; i++ {
		for _, txt := range texts {
			c.Add(txt, corpus.Negative)
		}
	}
	c.Preprocess(corpus.PreprocessOptions{})
	reg := grammar.NewRegistry(tokensregex.New())
	ix := index.Build(c, sketch.NewBuilder(reg, 4))
	ix.Prune(2)
	return ix, c
}

// denseBits rebuilds a hierarchy with the same nodes carrying dense mirrors
// of their coverage instead of the index's adaptive sets, so scoring runs
// on the dense reference kernel.
func denseBits(h *hierarchy.Hierarchy, ix *index.Index) *hierarchy.Hierarchy {
	rebuilt := hierarchy.BuildBits(ix, nil, nil, hierarchy.Config{})
	for _, key := range h.Keys() {
		n := h.Node(key)
		rebuilt.Add(n.Heuristic, n.Bits.OrInto(nil))
	}
	rebuilt.LinkEdges(ix)
	return rebuilt
}

// TestBenefitBitsMatchesReference cross-checks the adaptive and dense
// kernels against an ascending map scan on random sets, including
// bit-identical float sums.
func TestBenefitBitsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(300)
		var cov []int
		pos := map[int]bool{}
		scores := make([]float64, n)
		for i := 0; i < n; i++ {
			scores[i] = rng.Float64()
			if rng.Intn(3) == 0 {
				cov = append(cov, i)
			}
			if rng.Intn(4) == 0 {
				pos[i] = true
			}
		}
		want, newCov := 0.0, 0
		for _, id := range cov {
			if !pos[id] {
				want += scores[id]
				newCov++
			}
		}
		wantAvg := 0.0
		if newCov > 0 {
			wantAvg = want / float64(newCov)
		}
		posBits := bitset.FromMap(pos)
		for _, covBits := range []bitset.Cover{bitset.AdaptiveFromSorted(cov), bitset.FromSorted(cov)} {
			if got := Benefit(covBits, posBits, scores); got != want {
				t.Fatalf("trial %d: %T Benefit = %v, reference %v", trial, covBits, got, want)
			}
			if got := AvgBenefit(covBits, posBits, scores); got != wantAvg {
				t.Fatalf("trial %d: %T AvgBenefit = %v, reference %v", trial, covBits, got, wantAvg)
			}
		}
	}
}

// TestTraversalsIdenticalWithAndWithoutBits drives each strategy over two
// states — one scoring the index's adaptive sets, one scoring dense mirrors
// (the reference kernel) — with identical scripted feedback, and requires
// identical proposal sequences.
func TestTraversalsIdenticalWithAndWithoutBits(t *testing.T) {
	ix, c := equivFixture(t)
	cfg := hierarchy.Config{NumCandidates: 400, MaxRuleDepth: 6, MinCoverage: 2, Cleanup: true}
	seed := "tokensregex:best way to"
	if ix.Node(seed) == nil {
		t.Fatal("seed rule not materialized")
	}
	positives := map[int]bool{}
	for _, id := range ix.Coverage(seed) {
		positives[id] = true
	}
	posBits := bitset.FromMap(positives)
	scores := make([]float64, c.Len())
	rng := rand.New(rand.NewSource(11))
	for i := range scores {
		scores[i] = rng.Float64()
	}

	for _, name := range []string{"local", "universal", "hybrid"} {
		hBits := hierarchy.GenerateBits(ix, posBits, cfg)
		hRef := denseBits(hBits, ix)

		stBits := &State{Hierarchy: hBits, Index: ix, Positives: positives, PosBits: posBits, Scores: scores, Queried: map[string]bool{seed: true}}
		// The reference state needs the index for neighborhood fallbacks, but
		// its hierarchy nodes carry dense mirrors, so scoring stays on the
		// dense kernel (coverOf prefers hierarchy nodes) and the positive set
		// is rebuilt from the map.
		stRef := &State{Hierarchy: hRef, Index: ix, Positives: positives, Scores: scores, Queried: map[string]bool{seed: true}}

		tb := New(name, 3, seed)
		tr := New(name, 3, seed)
		tb.Reseed(stBits, seed)
		tr.Reseed(stRef, seed)
		steps := 0
		for step := 0; step < 12; step++ {
			kb, okb := tb.Next(stBits)
			kr, okr := tr.Next(stRef)
			if okb != okr || kb != kr {
				t.Fatalf("%s step %d: adaptive kernel proposed (%q,%v), dense (%q,%v)", name, step, kb, okb, kr, okr)
			}
			if !okb {
				break
			}
			steps++
			stBits.Queried[kb] = true
			stRef.Queried[kr] = true
			accept := step%3 == 0
			tb.Feedback(stBits, kb, accept)
			tr.Feedback(stRef, kr, accept)
		}
		if steps == 0 {
			t.Fatalf("%s proposed no rules; equivalence test is vacuous", name)
		}
	}
}
