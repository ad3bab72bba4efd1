package core_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/grammar"
	"repro/internal/ingest"
	"repro/internal/tokensregex"
	"repro/internal/workspace"
)

// TestGrowthUnderConcurrentAnnotation is the scale acceptance bar: a corpus
// boots at ~1K sentences and grows past 100K by live ingestion while
// annotators keep stepping, with no engine rebuild (the index
// object stays the same, only its version moves) and no acknowledged answer
// lost. Each annotator steps its own one-annotator workspace. Run with -race this is also the locking proof for the whole
// ingest-vs-read surface.
func TestGrowthUnderConcurrentAnnotation(t *testing.T) {
	if testing.Short() {
		t.Skip("grows a 100K-sentence corpus; skipped in -short")
	}
	c, err := datagen.ByName("directions", 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	boot := c.Len()
	if boot < 500 || boot > 2000 {
		t.Fatalf("boot corpus has %d sentences, want ~1K", boot)
	}
	eng, err := core.New(c, core.Config{
		Grammars:        []grammar.Grammar{tokensregex.New()},
		SketchDepth:     3,
		MaxRuleDepth:    6,
		NumCandidates:   200,
		MinRuleCoverage: 2,
		Budget:          1 << 20,
		Traversal:       "hybrid",
		Tau:             5,
		Classifier:      classifier.Config{Epochs: 4, LearningRate: 0.3, Seed: 1},
		ClassifierKind:  classifier.KindLogReg,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ixBefore := eng.Index()

	const target = 100_000
	stop := make(chan struct{})
	var answered atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				ws, err := workspace.New(eng, "grow", "directions", workspace.Options{
					SeedRules: []string{"best way to get to"},
					Budget:    8,
					Seed:      int64(w*1000 + round + 1),
				}, nil)
				if err == nil {
					err = ws.Attach(solo)
				}
				if err != nil {
					t.Errorf("worker %d: new workspace: %v", w, err)
					return
				}
				for {
					sug, ok, err := ws.Suggest(solo)
					if err != nil {
						t.Errorf("worker %d: Suggest: %v", w, err)
						return
					}
					if !ok {
						break
					}
					if _, err := ws.Answer(solo, sug.Key, answered.Add(1)%3 == 0); err != nil {
						t.Errorf("worker %d: Answer: %v", w, err)
						return
					}
				}
			}
		}(w)
	}

	batchNum := 0
	for eng.CorpusLen() < target {
		batch := make([]ingest.Sentence, 0, 5000)
		for i := 0; i < 5000; i++ {
			if i%20 == 0 {
				batch = append(batch, ingest.Sentence{
					Text:  fmt.Sprintf("best way to get to stop %d of line %d", i, batchNum),
					Label: 1,
				})
			} else {
				batch = append(batch, ingest.Sentence{
					Text:  fmt.Sprintf("the shop at corner %d closed early on day %d", i, batchNum),
					Label: 0,
				})
			}
		}
		from, to, err := eng.Ingest(batch)
		if err != nil {
			t.Fatal(err)
		}
		if to-from != 5000 {
			t.Fatalf("batch %d acknowledged [%d,%d), want 5000 sentences", batchNum, from, to)
		}
		batchNum++
	}
	close(stop)
	wg.Wait()

	if got := eng.CorpusLen(); got < target {
		t.Fatalf("corpus is %d sentences, want >= %d", got, target)
	}
	if eng.Index() != ixBefore {
		t.Fatal("index object was replaced: growth must be incremental, not a rebuild")
	}
	if answered.Load() == 0 {
		t.Fatal("no annotation traffic ran during growth")
	}
	// A workspace created after all growth sees the full corpus: its seed
	// rule's coverage spans ingested sentences.
	ws, err := workspace.New(eng, "late", "directions", workspace.Options{SeedRules: []string{"best way to get to"}, Budget: 4, Seed: 99}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := ws.Report().PositiveCount; got < batchNum*250 {
		t.Errorf("post-growth workspace found %d positives, want >= %d from ingested sentences",
			got, batchNum*250)
	}
}
