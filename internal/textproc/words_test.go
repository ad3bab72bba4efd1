package textproc_test

import (
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/textproc"
)

var tokenizers = []textproc.Tokenizer{
	{},
	{KeepPunct: true},
	{SplitContractions: true},
}

var wordEdgeCases = []string{
	"", " ", "don't", "DON'T", "a-'b", "x--y", "'a", "a'", "-a-", "a' b", "it's-a-me",
	"Ünïcödé wörds ÀÉÎ", "straße İstanbul ǅ", "naïve café—crème", "日本語 テキスト", "x y z",
	"1,000.5 km/h", "\xff\xfeab\xc3", "a\xffb", "Shuttle 'Tis- HOTEL!",
}

// checkWords requires TokenizeWords(text) to equal the Norm fields of
// Tokenize(text) for every tokenizer configuration.
func checkWords(t *testing.T, text string) {
	t.Helper()
	for _, tok := range tokenizers {
		var want []string
		for _, tk := range tok.Tokenize(text) {
			want = append(want, tk.Norm)
		}
		if got := tok.TokenizeWords(text); !slices.Equal(got, want) {
			t.Fatalf("%+v.TokenizeWords(%q) = %q, want %q", tok, text, got, want)
		}
	}
}

func TestTokenizeWordsMatchesTokenize(t *testing.T) {
	for _, text := range wordEdgeCases {
		checkWords(t, text)
	}
	for _, name := range datagen.AllDatasetNames() {
		c, err := datagen.ByName(name, 0.05, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range c.Sentences {
			checkWords(t, s.Text)
		}
	}
}

func FuzzTokenizeWords(f *testing.F) {
	for _, text := range wordEdgeCases {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		checkWords(t, text)
	})
}
