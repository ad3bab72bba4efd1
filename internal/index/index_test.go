package index

import (
	"reflect"
	"testing"

	"repro/internal/bitset"
	"repro/internal/corpus"
	"repro/internal/grammar"
	"repro/internal/sketch"
	"repro/internal/tokensregex"
	"repro/internal/treematch"
)

func buildCorpus(texts []string) *corpus.Corpus {
	c := corpus.New("idx", "t")
	for _, txt := range texts {
		c.Add(txt, corpus.Negative)
	}
	c.Preprocess(corpus.PreprocessOptions{Parse: true})
	return c
}

func paperCorpus() *corpus.Corpus {
	// Sentences s1..s6 of Example 1.
	return buildCorpus([]string{
		"What is the best way to get to SFO airport?",
		"Is there a bart from SFO to the hotel?",
		"What is the best way to check in there?",
		"Is Uber the fastest way to get to the airport?",
		"Would Uber Eats be the fastest way to order?",
		"What is the best way to order food from you?",
	})
}

func tokenRegistry() *grammar.Registry {
	return grammar.NewRegistry(tokensregex.New())
}

func fullRegistry() *grammar.Registry {
	return grammar.NewRegistry(tokensregex.New(), treematch.New())
}

func TestBuildFigure6Counts(t *testing.T) {
	// Figure 6 of the paper: after indexing s1 and s4, "way to" and "to get"
	// have count 2, "best way" count 1, "fastest way" count 1.
	c := buildCorpus([]string{
		"What is the best way to get to SFO airport?",
		"Is Uber the fastest way to get to the airport?",
	})
	b := sketch.NewBuilder(tokenRegistry(), 4)
	ix := Build(c, b)

	tests := []struct {
		phrase string
		count  int
	}{
		{"way to", 2},
		{"to get", 2},
		{"best way", 1},
		{"fastest way", 1},
		{"best way to get", 1},
		{"airport", 2},
	}
	for _, tt := range tests {
		key := "tokensregex:" + tt.phrase
		if got := ix.Count(key); got != tt.count {
			t.Errorf("Count(%q) = %d, want %d", tt.phrase, got, tt.count)
		}
	}
	if got := ix.Count("tokensregex:shuttle"); got != 0 {
		t.Errorf("Count(shuttle) = %d, want 0", got)
	}
	// Root coverage spans both sentences.
	if ix.Root().Count() != 2 {
		t.Errorf("root count = %d", ix.Root().Count())
	}
}

func TestIndexCoverageMatchesDirectMatching(t *testing.T) {
	c := paperCorpus()
	b := sketch.NewBuilder(tokenRegistry(), 5)
	ix := Build(c, b)
	g := tokensregex.New()
	for _, spec := range []string{"best way to", "fastest way", "sfo", "uber"} {
		h, err := g.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		want := grammar.Coverage(h, c)
		got := ix.Coverage(h.Key())
		if !reflect.DeepEqual(append([]int{}, got...), want) {
			t.Errorf("coverage mismatch for %q: index=%v direct=%v", spec, got, want)
		}
	}
}

func TestParentChildEdgesAndAntiMonotonicity(t *testing.T) {
	c := paperCorpus()
	b := sketch.NewBuilder(fullRegistry(), 4)
	ix := Build(c, b)
	for _, key := range ix.Keys() {
		n := ix.Node(key)
		for _, ck := range ix.Children(key) {
			child := ix.Node(ck)
			if child == nil {
				t.Fatalf("dangling child edge %s -> %s", key, ck)
			}
			// Anti-monotonicity: parent coverage superset of child coverage.
			if key == grammar.RootKey {
				continue
			}
			child.Bits().Range(func(id int) bool {
				if !n.Bits().Contains(id) {
					t.Errorf("child %s covers %d not covered by parent %s", ck, id, key)
				}
				return true
			})
		}
		for _, pk := range ix.Parents(key) {
			if ix.Node(pk) == nil {
				t.Fatalf("dangling parent edge %s -> %s", key, pk)
			}
			// Symmetry: this node appears among the parent's children.
			found := false
			for _, ck := range ix.Children(pk) {
				if ck == key {
					found = true
				}
			}
			if !found {
				t.Errorf("edge asymmetry: %s lists parent %s but not vice versa", key, pk)
			}
		}
	}
	// Every non-root node has at least one parent.
	for _, key := range ix.Keys() {
		if key == grammar.RootKey {
			continue
		}
		if len(ix.Parents(key)) == 0 {
			t.Errorf("node %s has no parents", key)
		}
	}
}

func TestMergeEqualsSequentialBuild(t *testing.T) {
	c := paperCorpus()
	b := sketch.NewBuilder(tokenRegistry(), 4)

	seq := New()
	for id := 0; id < c.Len(); id++ {
		seq.AddSketch(b.Build(c.Sentence(id)))
	}
	seq.BuildEdges()

	// Two shards merged.
	a := New()
	for id := 0; id < 3; id++ {
		a.AddSketch(b.Build(c.Sentence(id)))
	}
	bb := New()
	for id := 3; id < c.Len(); id++ {
		bb.AddSketch(b.Build(c.Sentence(id)))
	}
	a.Merge(bb)
	a.BuildEdges()

	if a.Len() != seq.Len() {
		t.Fatalf("merged len %d != sequential len %d", a.Len(), seq.Len())
	}
	for _, key := range seq.Keys() {
		want, got := seq.Node(key).Bits().AppendTo(nil), a.Node(key).Bits().AppendTo(nil)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("coverage differs for %s: %v vs %v", key, want, got)
		}
	}
}

func TestBuildParallelMatchesSequential(t *testing.T) {
	// A corpus large enough to trigger the sharded build path.
	texts := make([]string, 0, 400)
	base := []string{
		"the shuttle to the airport leaves at nine",
		"what is the best way to get downtown",
		"can i order a pizza to my room",
		"the flooding was caused by heavy rainfall",
		"is there a bart from the airport to the hotel",
	}
	for i := 0; i < 80; i++ {
		texts = append(texts, base...)
	}
	c := buildCorpus(texts)
	b := sketch.NewBuilder(tokenRegistry(), 3)
	par := Build(c, b)

	seq := New()
	for id := 0; id < c.Len(); id++ {
		seq.AddSketch(b.Build(c.Sentence(id)))
	}
	seq.BuildEdges()

	if par.Len() != seq.Len() {
		t.Fatalf("parallel len %d != sequential %d", par.Len(), seq.Len())
	}
	for _, key := range seq.Keys() {
		if seq.Count(key) != par.Count(key) {
			t.Errorf("count mismatch for %s: %d vs %d", key, seq.Count(key), par.Count(key))
		}
		want, got := seq.Node(key).Bits().AppendTo(nil), par.Node(key).Bits().AppendTo(nil)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("coverage differs for %s: %v vs %v", key, want, got)
		}
	}
}

func TestPrune(t *testing.T) {
	c := paperCorpus()
	b := sketch.NewBuilder(tokenRegistry(), 4)
	ix := Build(c, b)
	before := ix.Len()
	ix.Prune(2)
	if ix.Len() >= before {
		t.Errorf("prune did not shrink index: %d -> %d", before, ix.Len())
	}
	for _, key := range ix.Keys() {
		if key == grammar.RootKey {
			continue
		}
		if ix.Count(key) < 2 {
			t.Errorf("node %s survived prune with count %d", key, ix.Count(key))
		}
	}
	// Prune(1) is a no-op.
	l := ix.Len()
	ix.Prune(1)
	if ix.Len() != l {
		t.Error("Prune(1) modified the index")
	}
}

func TestCoverageOverlapAndNewCoverage(t *testing.T) {
	c := paperCorpus()
	b := sketch.NewBuilder(tokenRegistry(), 4)
	ix := Build(c, b)
	key := "tokensregex:best way to"
	p := bitset.FromSorted([]int{0})
	cov := ix.Coverage(key)
	if len(cov) != 3 {
		t.Fatalf("coverage of 'best way to' = %v, want 3 sentences", cov)
	}
	if got := ix.OverlapBits(key, p); got != 1 {
		t.Errorf("overlap = %d", got)
	}
	if got := ix.NewCoverageBits(key, p); got != 2 {
		t.Errorf("new coverage = %d", got)
	}
	if ix.OverlapBits("missing", p) != 0 || ix.NewCoverageBits("missing", p) != 0 {
		t.Error("missing key should have zero overlap")
	}
}

// mapCounts is the map-based reference for OverlapBits/NewCoverageBits:
// |C_r ∩ P| and |C_r \ P| by per-id lookups.
func mapCounts(ix *Index, key string, p map[int]bool) (overlap, fresh int) {
	for _, id := range ix.Coverage(key) {
		if p[id] {
			overlap++
		} else {
			fresh++
		}
	}
	return overlap, fresh
}

func TestEnsureHeuristic(t *testing.T) {
	c := paperCorpus()
	b := sketch.NewBuilder(tokenRegistry(), 2)
	ix := Build(c, b)
	g := tokensregex.New()
	// Depth-4 phrase is beyond the sketch depth, so it is not materialized.
	h, _ := g.Parse("best way to get")
	if ix.Node(h.Key()) != nil {
		t.Fatal("deep heuristic unexpectedly materialized")
	}
	n := ix.EnsureHeuristic(h, c)
	if n.Count() != 1 {
		t.Errorf("EnsureHeuristic count = %d, want 1", n.Count())
	}
	// Idempotent.
	n2 := ix.EnsureHeuristic(h, c)
	if n != n2 {
		t.Error("EnsureHeuristic created a duplicate node")
	}
	// Already-materialized heuristics are returned as-is.
	h2, _ := g.Parse("best way")
	if got := ix.EnsureHeuristic(h2, c); got.Count() != 3 {
		t.Errorf("existing node count = %d", got.Count())
	}
}

// TestMergeKeepsAdhocNodes pins that Merge carries the ad-hoc flag: a seed
// rule materialized by EnsureHeuristic in a merged-in index must still be
// probed by AddSentence, or its coverage would stop growing on ingest.
func TestMergeKeepsAdhocNodes(t *testing.T) {
	c := paperCorpus()
	b := sketch.NewBuilder(tokenRegistry(), 2)
	h, err := tokensregex.New().Parse("best way to get")
	if err != nil {
		t.Fatal(err)
	}
	other := Build(c, b)
	other.EnsureHeuristic(h, c)
	other.BuildEdges()

	ix := New()
	ix.Merge(other)
	ix.BuildEdges()
	if got := ix.Count(h.Key()); got != 1 {
		t.Fatalf("merged seed-rule count = %d, want 1", got)
	}
	s := c.Add("the best way to get downtown", corpus.Negative)
	c.PreprocessFrom(s.ID, corpus.PreprocessOptions{Parse: true})
	ix.AddSentence(b.Build(s), s)
	ix.BuildEdges()
	if got, want := ix.Node(h.Key()).Bits().AppendTo(nil), []int{0, s.ID}; !reflect.DeepEqual(got, want) {
		t.Fatalf("seed-rule coverage after ingest = %v, want %v", got, want)
	}
}

func TestEmptyIndex(t *testing.T) {
	ix := New()
	if ix.Len() != 1 {
		t.Errorf("new index len = %d", ix.Len())
	}
	if ix.Count("anything") != 0 {
		t.Error("unknown key count != 0")
	}
	if ix.Coverage("anything") != nil {
		t.Error("unknown key coverage != nil")
	}
	if ix.Children("missing") != nil || ix.Parents("missing") != nil {
		t.Error("unknown key edges != nil")
	}
	ix.AddSketch(sketch.Sketch{SentenceID: -1})
	if ix.Root().Count() != 0 {
		t.Error("invalid sketch modified root")
	}
}
