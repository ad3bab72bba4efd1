package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/corpus"
	"repro/internal/datagen"
	"repro/internal/ingest"
	"repro/internal/textproc"
)

// workload fixes the traffic one run generates. Every input the program
// sees (corpora, seed rules, ingest batches) derives from the run's seed.
type workload struct {
	name        string
	dataset     string // a datagen dataset at its default size
	sketchDepth int
	// annotators is the number of closed-loop annotator goroutines; with
	// share set they attach to the same workspaces, otherwise each works
	// its own.
	annotators int
	share      bool
	budget     int
	// labelInline submits each spent workspace's accepted rules as a
	// labeling job and awaits it before closing the workspace.
	labelInline bool
	// ingestEvery > 0 runs the open-loop ingest client beside the
	// annotators, one batch of ingestBatch sentences per interval.
	ingestEvery float64 // seconds
	ingestBatch int
}

// setups is how many times a run builds the stack to take set-up time's
// median; the last build serves the run.
const setups = 3

var workloads = map[string]workload{
	"annotate": {
		name: "annotate", dataset: "directions", sketchDepth: 5,
		annotators: 2, share: true, budget: 60,
	},
	"annotate-large": {
		name: "annotate-large", dataset: "professions", sketchDepth: 4,
		annotators: 1, budget: 15, labelInline: true,
	},
	"ingest": {
		name: "ingest", dataset: "directions", sketchDepth: 5,
		annotators: 1, budget: 40, ingestEvery: 0.2, ingestBatch: 20,
	},
}

// deterministic reports whether every workspace's trajectory is a function
// of the inputs alone: one annotator per workspace and no concurrent ingest.
func (w workload) deterministic() bool { return !w.share && w.ingestEvery == 0 }

// inputs are the generated inputs of one run.
type inputs struct {
	w    workload
	seed int64
	// seedRules are precise phrases mined from the gold positives;
	// workspace k starts from seedRules[k % len].
	seedRules []string

	mu   sync.Mutex
	gold []bool // gold label per sentence id, grown by ingests
}

// corpus generates a fresh copy of the run's corpus; every shard engine and
// every replay gets its own, since engines grow theirs on ingest.
func (in *inputs) corpus() *corpus.Corpus {
	c, err := datagen.ByName(in.w.dataset, 1, in.seed)
	if err != nil {
		panic(err) // dataset names are fixed in the workload table
	}
	return c
}

func newInputs(w workload, seed int64) (*inputs, error) {
	in := &inputs{w: w, seed: seed}
	c := in.corpus()
	in.gold = make([]bool, c.Len())
	for i, s := range c.Sentences {
		in.gold[i] = s.Gold == corpus.Positive
	}
	in.seedRules = mineSeedRules(c, in.gold)
	if len(in.seedRules) == 0 {
		return nil, fmt.Errorf("no seed rule found in %s (seed %d)", w.dataset, seed)
	}
	return in, nil
}

// isGold reports whether sentence id is gold-positive.
func (in *inputs) isGold(id int) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return id >= 0 && id < len(in.gold) && in.gold[id]
}

// recordIngest extends the gold labels with an acknowledged batch.
func (in *inputs) recordIngest(from int, batch []ingest.Sentence) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if from != len(in.gold) {
		return fmt.Errorf("ingest assigned ids from %d, want %d", from, len(in.gold))
	}
	for _, s := range batch {
		in.gold = append(in.gold, s.Label == 1)
	}
	return nil
}

// seedRuleCount bounds the seed rules a run cycles through: the most
// covering ones are the same templates whatever the corpus seed, so runs with
// different seeds walk comparable trajectories.
const seedRuleCount = 8

// mineSeedRules returns precise seed rules of the kind the paper's annotator
// starts from: phrases of 3–4 lower-case words from gold positives, with at
// least 90% gold precision and coverage between 1/30 and 1/2 of the
// positives. It returns the seedRuleCount most covering, one phrase per
// distinct (coverage, positives) count so that overlapping phrases of one
// template do not crowd out the others.
func mineSeedRules(c *corpus.Corpus, gold []bool) []string {
	var tok textproc.Tokenizer
	type stat struct{ cov, pos int }
	stats := map[string]*stat{}
	for i, s := range c.Sentences {
		words := tok.TokenizeWords(s.Text)
		seen := map[string]bool{}
		for n := 3; n <= 4; n++ {
			for j := 0; j+n <= len(words); j++ {
				ok := true
				for _, w := range words[j : j+n] {
					if !isLowerWord(w) {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				p := strings.Join(words[j:j+n], " ")
				if seen[p] {
					continue
				}
				seen[p] = true
				st := stats[p]
				if st == nil {
					if !gold[i] {
						continue // only phrases first seen in a positive can qualify
					}
					st = &stat{}
					stats[p] = st
				}
				st.cov++
				if gold[i] {
					st.pos++
				}
			}
		}
	}
	positives := 0
	for _, g := range gold {
		if g {
			positives++
		}
	}
	var cands []string
	for p, st := range stats {
		if st.cov >= max(5, positives/30) && st.cov <= positives/2 && float64(st.pos) >= 0.9*float64(st.cov) {
			cands = append(cands, p)
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if sa, sb := stats[cands[a]], stats[cands[b]]; sa.cov != sb.cov {
			return sa.cov > sb.cov
		}
		return cands[a] < cands[b]
	})
	var out []string
	taken := map[stat]bool{}
	for _, p := range cands {
		if st := *stats[p]; !taken[st] && len(out) < seedRuleCount {
			taken[st] = true
			out = append(out, p)
		}
	}
	return out
}

func isLowerWord(w string) bool {
	if w == "" {
		return false
	}
	for _, r := range w {
		if r < 'a' || r > 'z' {
			return false
		}
	}
	return true
}

// ingestBatches generates the open-loop client's batches: sentences of the
// same dataset drawn from a corpus generated under a derived seed.
func ingestBatches(w workload, seed int64, n int) [][]ingest.Sentence {
	if n <= 0 {
		return nil
	}
	spec := datagen.DirectionsSpec()
	if w.dataset == "professions" {
		spec = datagen.ProfessionsSpec()
	}
	spec.NumSentences = n * w.ingestBatch
	c := datagen.Generate(spec, seed^0x5eed)
	out := make([][]ingest.Sentence, n)
	k := 0
	for i := range out {
		for j := 0; j < w.ingestBatch; j++ {
			s := c.Sentences[k%c.Len()]
			k++
			out[i] = append(out[i], ingest.Sentence{Text: s.Text, Label: int(s.Gold)})
		}
	}
	return out
}
