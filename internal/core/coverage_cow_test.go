package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/classifier"
	"repro/internal/datagen"
	"repro/internal/grammar"
	"repro/internal/index"
	"repro/internal/ingest"
	"repro/internal/tokensregex"
)

// TestPublishedCoverageImmutableAcrossIngest pins the copy-on-write contract
// of index coverage: a set handed out by Node().Bits() or Engine.CoverageBits
// is never modified by later ingest, even while readers range over it
// without any lock, and the republished set holds the new ids. Held sets are
// taken for a sketched key and for a seed rule (an ad-hoc node probed on
// ingest), and both keys are extended by every batch. Under -race an
// in-place update of a published set is also reported as a data race.
func TestPublishedCoverageImmutableAcrossIngest(t *testing.T) {
	c, err := datagen.ByName("directions", 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(c, Config{
		Grammars:        []grammar.Grammar{tokensregex.New()},
		SketchDepth:     3,
		MaxRuleDepth:    6,
		NumCandidates:   200,
		MinRuleCoverage: 2,
		Budget:          10,
		Traversal:       "hybrid",
		Tau:             5,
		Classifier:      classifier.Config{Epochs: 2, LearningRate: 0.3, Seed: 1},
		ClassifierKind:  classifier.KindLogReg,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const sketched, seed = "way to", "best way to get to"
	seedKey, _, err := eng.MaterializeRule(seed)
	if err != nil {
		t.Fatal(err)
	}
	sketchedKey, _, err := eng.CoverageBits(sketched)
	if err != nil {
		t.Fatal(err)
	}

	// Held sets: each key through both accessors.
	var held []bitset.Cover
	eng.WithIndexRead(func(ix *index.Index) {
		for _, key := range []string{sketchedKey, seedKey} {
			n := ix.Node(key)
			if n == nil || n.Bits() == nil {
				t.Fatalf("%s is not a published index node", key)
			}
			held = append(held, n.Bits())
		}
	})
	for _, spec := range []string{sketched, seed} {
		_, bits, err := eng.CoverageBits(spec)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, bits)
	}
	snaps := make([][]int, len(held))
	for i, h := range held {
		snaps[i] = h.AppendTo(nil)
		if len(snaps[i]) == 0 {
			t.Fatalf("held set %d is empty", i)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := range held {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := 0
				held[r].Range(func(int) bool { n++; return true })
				if n != len(snaps[r]) || held[r].Count() != len(snaps[r]) {
					t.Errorf("held set %d changed under a reader: %d ids, snapshot %d", r, n, len(snaps[r]))
					return
				}
			}
		}(r)
	}
	var added []int
	for b := 0; b < 8; b++ {
		batch := make([]ingest.Sentence, 5)
		for i := range batch {
			batch[i] = ingest.Sentence{Text: fmt.Sprintf("what is the best way to get to pier %d today", b*10+i), Label: 1}
		}
		from, to, err := eng.Ingest(batch)
		if err != nil {
			t.Fatal(err)
		}
		for id := from; id < to; id++ {
			added = append(added, id)
		}
	}
	close(stop)
	wg.Wait()

	for i, h := range held {
		if got := h.AppendTo(nil); !reflect.DeepEqual(got, snaps[i]) {
			t.Fatalf("held set %d changed across ingest: %d ids, snapshot %d", i, len(got), len(snaps[i]))
		}
	}
	for _, spec := range []string{sketched, seed} {
		_, bits, err := eng.CoverageBits(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range added {
			if !bits.Contains(id) {
				t.Fatalf("republished coverage of %q lacks ingested sentence %d", spec, id)
			}
		}
	}
}
