package hierarchy

import (
	"container/heap"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitset"
	"repro/internal/corpus"
	"repro/internal/grammar"
	"repro/internal/index"
	"repro/internal/sketch"
	"repro/internal/tokensregex"
)

// mapCounts returns |C_r ∩ P| and |C_r \ P| by per-id map lookups, the
// reference the kernel scoring must match.
func mapCounts(ix *index.Index, key string, p map[int]bool) (overlap, fresh int) {
	for _, id := range ix.Coverage(key) {
		if p[id] {
			overlap++
		} else {
			fresh++
		}
	}
	return overlap, fresh
}

// referenceGenerateCandidates is the pre-kernel implementation of Algorithm 2
// (greedy best-first expansion with per-id map scoring), kept verbatim as the
// oracle the bitset path must match key-for-key.
func referenceGenerateCandidates(ix *index.Index, positives map[int]bool, cfg Config) []string {
	k := cfg.NumCandidates
	if k <= 0 {
		k = 10000
	}
	score := func(key string) cand {
		overlap, _ := mapCounts(ix, key, positives)
		return cand{key: key, overlap: overlap, total: ix.Count(key)}
	}
	selected := make([]string, 0, k)
	inSelected := map[string]bool{grammar.RootKey: true}
	inCandidates := map[string]bool{}
	candidates := &candHeap{}
	heap.Init(candidates)
	eligible := func(key string) bool {
		if inSelected[key] || inCandidates[key] {
			return false
		}
		n := ix.Node(key)
		if n == nil {
			return false
		}
		if cfg.MaxRuleDepth > 0 && n.Heuristic.Depth() > cfg.MaxRuleDepth {
			return false
		}
		if cfg.MinCoverage > 0 && n.Count() < cfg.MinCoverage {
			return false
		}
		return true
	}
	recent := grammar.RootKey
	for len(selected) < k {
		for _, ck := range ix.Children(recent) {
			if eligible(ck) {
				inCandidates[ck] = true
				heap.Push(candidates, score(ck))
			}
		}
		if candidates.Len() == 0 {
			break
		}
		best := heap.Pop(candidates).(cand)
		delete(inCandidates, best.key)
		inSelected[best.key] = true
		selected = append(selected, best.key)
		recent = best.key
	}
	return selected
}

func equivCorpus() *corpus.Corpus {
	texts := []string{
		"what is the best way to get to the airport",
		"is there a shuttle to the hotel from the airport",
		"what is the best way to order food tonight",
		"can i get a pizza to my room right now",
		"the best way to check in there is online",
		"is uber the fastest way to get downtown",
		"would uber eats be the fastest way to order",
		"the shuttle to the airport leaves at nine",
		"what is the fastest way to get to the station",
		"can i order sushi to the conference room",
	}
	c := corpus.New("equiv", "t")
	for i := 0; i < 12; i++ {
		for _, txt := range texts {
			c.Add(txt, corpus.Negative)
		}
	}
	c.Preprocess(corpus.PreprocessOptions{})
	return c
}

// TestGenerateCandidatesMatchesReference checks that bitset scoring selects
// exactly the reference key sequence across random positive sets.
func TestGenerateCandidatesMatchesReference(t *testing.T) {
	c := equivCorpus()
	reg := grammar.NewRegistry(tokensregex.New())
	ix := index.Build(c, sketch.NewBuilder(reg, 4))
	ix.Prune(2)

	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		positives := map[int]bool{}
		for i := 0; i < trial*5; i++ {
			positives[rng.Intn(c.Len())] = true
		}
		cfg := Config{NumCandidates: 200 + trial*100, MaxRuleDepth: 6, MinCoverage: 2, Cleanup: true}
		want := referenceGenerateCandidates(ix, positives, cfg)
		got := GenerateCandidates(ix, positives, cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: bitset candidates diverge from reference\n got: %v\nwant: %v", trial, got, want)
		}
		// The assembled hierarchies match too (same nodes, same edges).
		hWant := BuildBits(ix, want, bitset.FromMap(positives), cfg)
		hGot := Generate(ix, positives, cfg)
		if !reflect.DeepEqual(hGot.Keys(), hWant.Keys()) {
			t.Fatalf("trial %d: hierarchy keys diverge", trial)
		}
		for _, key := range hWant.Keys() {
			a, b := hWant.Node(key), hGot.Node(key)
			if !reflect.DeepEqual(a.Parents, b.Parents) || !reflect.DeepEqual(a.Children, b.Children) {
				t.Fatalf("trial %d: edges diverge at %s", trial, key)
			}
		}
	}
}

// TestScoreBatchParallelDeterminism checks that the worker pool scores a
// batch identically to the serial path, regardless of worker count.
func TestScoreBatchParallelDeterminism(t *testing.T) {
	c := equivCorpus()
	reg := grammar.NewRegistry(tokensregex.New())
	ix := index.Build(c, sketch.NewBuilder(reg, 4))
	base := ix.Keys()
	// Tile the key list well past the parallel threshold.
	keys := make([]string, 0, scoreParallelThreshold*2)
	for len(keys) < scoreParallelThreshold*2 {
		keys = append(keys, base...)
	}
	pos := bitset.FromSorted([]int{1, 5, 9, 13, 50, 77})

	serial := make([]cand, len(keys))
	scoreBatch(ix, keys, pos, 1, serial)
	for _, workers := range []int{2, 4, 8} {
		parallel := make([]cand, len(keys))
		scoreBatch(ix, keys, pos, workers, parallel)
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("scoreBatch with %d workers diverges from serial", workers)
		}
	}
}

// TestNonRootKeysPreallocated pins the allocation-free accessor: repeated
// calls return the same backing slice, in insertion order, without the root.
func TestNonRootKeysPreallocated(t *testing.T) {
	c := equivCorpus()
	reg := grammar.NewRegistry(tokensregex.New())
	ix := index.Build(c, sketch.NewBuilder(reg, 3))
	h := Generate(ix, nil, Config{NumCandidates: 50, MinCoverage: 2})
	a := h.NonRootKeys()
	b := h.NonRootKeys()
	if len(a) == 0 {
		t.Fatal("no non-root keys")
	}
	if &a[0] != &b[0] {
		t.Error("NonRootKeys reallocates on every call")
	}
	for _, k := range a {
		if k == grammar.RootKey {
			t.Error("NonRootKeys contains the root")
		}
	}
	if len(a) != h.Len()-1 {
		t.Errorf("NonRootKeys has %d keys for %d nodes", len(a), h.Len())
	}
}
