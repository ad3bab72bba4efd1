// Package textproc provides the low-level text processing substrate used by
// the Darwin rule-discovery pipeline: word tokenization, sentence splitting,
// normalization and vocabulary construction.
//
// The paper relies on SpaCy for these steps; this package is a self-contained
// replacement that produces token sequences with stable, deterministic
// behaviour. Darwin's algorithms only depend on the token sequences
// themselves, not on a particular tokenization scheme.
package textproc

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Token is a single token of a sentence after tokenization. The surface form
// is preserved in Text; Norm is the lowercased normalized form used for
// indexing and rule matching.
type Token struct {
	Text  string // original surface form
	Norm  string // normalized (lowercased) form
	Start int    // byte offset of the token start in the original text
	End   int    // byte offset one past the token end
}

// Tokenizer splits raw text into tokens. The zero value is ready to use.
type Tokenizer struct {
	// KeepPunct controls whether punctuation runs are emitted as tokens.
	// Rule grammars generally ignore punctuation, so the default is false.
	KeepPunct bool
	// SplitContractions controls whether common English contractions such as
	// "don't" are split into ["do", "n't"]. Default false keeps them whole.
	SplitContractions bool
}

// Tokenize splits text into tokens. Tokens are maximal runs of letters/digits
// (plus internal apostrophes and hyphens); punctuation is skipped unless
// KeepPunct is set.
func (t Tokenizer) Tokenize(text string) []Token {
	var tokens []Token
	runes := []rune(text)
	n := len(runes)
	// byteOffset tracks byte position of runes[i].
	byteOffsets := make([]int, n+1)
	off := 0
	for i, r := range runes {
		byteOffsets[i] = off
		off += len(string(r))
	}
	byteOffsets[n] = off

	i := 0
	for i < n {
		r := runes[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case isWordRune(r):
			j := i + 1
			for j < n && (isWordRune(runes[j]) || isInternalJoiner(runes[j], runes, j)) {
				j++
			}
			surface := string(runes[i:j])
			tokens = append(tokens, makeToken(surface, byteOffsets[i], byteOffsets[j], t.SplitContractions)...)
			i = j
		default:
			// punctuation run
			j := i + 1
			for j < n && !unicode.IsSpace(runes[j]) && !isWordRune(runes[j]) {
				j++
			}
			if t.KeepPunct {
				surface := string(runes[i:j])
				tokens = append(tokens, Token{
					Text:  surface,
					Norm:  surface,
					Start: byteOffsets[i],
					End:   byteOffsets[j],
				})
			}
			i = j
		}
	}
	return tokens
}

// TokenizeWords returns the normalized token strings, the Norm fields of
// Tokenize. The zero Tokenizer scans text in place, and a token already in
// normal form is a substring of text rather than a copy.
func (t Tokenizer) TokenizeWords(text string) []string {
	if t.KeepPunct || t.SplitContractions {
		toks := t.Tokenize(text)
		if len(toks) == 0 {
			return nil
		}
		out := make([]string, len(toks))
		for i, tok := range toks {
			out[i] = tok.Norm
		}
		return out
	}
	var out []string
	for i := 0; i < len(text); {
		r, size := utf8.DecodeRuneInString(text[i:])
		if !isWordRune(r) {
			i += size
			continue
		}
		start := i
		for i += size; i < len(text); i += size {
			r, size = utf8.DecodeRuneInString(text[i:])
			if isWordRune(r) {
				continue
			}
			// A joiner is only ever reached right after a word rune, so it
			// joins when the next rune is a word rune too.
			if r != '\'' && r != '-' {
				break
			}
			if next, _ := utf8.DecodeRuneInString(text[i+size:]); !isWordRune(next) {
				break
			}
		}
		out = append(out, Normalize(text[start:i]))
	}
	return out
}

func makeToken(surface string, start, end int, splitContractions bool) []Token {
	if splitContractions {
		if idx := strings.Index(strings.ToLower(surface), "n't"); idx > 0 && idx == len(surface)-3 {
			head := surface[:idx]
			tail := surface[idx:]
			return []Token{
				{Text: head, Norm: strings.ToLower(head), Start: start, End: start + len(head)},
				{Text: tail, Norm: strings.ToLower(tail), Start: start + len(head), End: end},
			}
		}
	}
	return []Token{{Text: surface, Norm: Normalize(surface), Start: start, End: end}}
}

// Normalize lowercases a token and strips leading/trailing apostrophes and
// hyphens so that "Uber's" and "uber" share a normal form prefix behaviour
// expected by the rule index.
func Normalize(s string) string {
	s = strings.ToLower(s)
	s = strings.Trim(s, "'-")
	return s
}

func isWordRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// isInternalJoiner reports whether the rune at position j joins two word runes
// (apostrophe or hyphen inside a word, e.g. "don't", "drop-off").
func isInternalJoiner(r rune, runes []rune, j int) bool {
	if r != '\'' && r != '-' {
		return false
	}
	if j+1 >= len(runes) {
		return false
	}
	return isWordRune(runes[j-1]) && isWordRune(runes[j+1])
}

// SplitSentences splits raw text into sentence strings using terminal
// punctuation (. ! ?) followed by whitespace and an uppercase letter or end of
// text. Abbreviation handling is intentionally minimal: common abbreviations
// ("mr.", "dr.", "e.g.", "i.e.", "vs.", "etc.") do not end sentences.
func SplitSentences(text string) []string {
	var sentences []string
	runes := []rune(text)
	n := len(runes)
	start := 0
	for i := 0; i < n; i++ {
		r := runes[i]
		if r != '.' && r != '!' && r != '?' {
			continue
		}
		// Look behind for abbreviations.
		if r == '.' && isAbbreviation(runes, start, i) {
			continue
		}
		// A sentence ends here if next non-space is uppercase/digit or end.
		j := i + 1
		for j < n && runes[j] == r {
			j++ // swallow "..." or "!!"
		}
		k := j
		for k < n && unicode.IsSpace(runes[k]) {
			k++
		}
		if k >= n || unicode.IsUpper(runes[k]) || unicode.IsDigit(runes[k]) || runes[k] == '"' || runes[k] == '\'' {
			s := strings.TrimSpace(string(runes[start:j]))
			if s != "" {
				sentences = append(sentences, s)
			}
			start = k
			i = k - 1
		}
	}
	if start < n {
		s := strings.TrimSpace(string(runes[start:]))
		if s != "" {
			sentences = append(sentences, s)
		}
	}
	return sentences
}

var abbreviations = map[string]bool{
	"mr": true, "mrs": true, "ms": true, "dr": true, "prof": true,
	"st": true, "vs": true, "etc": true, "inc": true, "ltd": true,
	"e.g": true, "i.e": true, "u.s": true, "no": true, "jr": true, "sr": true,
}

func isAbbreviation(runes []rune, start, dot int) bool {
	// Extract the word immediately before the dot.
	j := dot
	for j > start && (isWordRune(runes[j-1]) || runes[j-1] == '.') {
		j--
	}
	word := strings.ToLower(strings.TrimSuffix(string(runes[j:dot]), "."))
	return abbreviations[word]
}

// NGrams returns all contiguous n-grams (as space-joined strings) of the token
// slice for n in [minN, maxN]. It is used by the TokensRegex sketch builder
// and by the Snuba baseline's feature miner.
func NGrams(tokens []string, minN, maxN int) []string {
	if minN < 1 {
		minN = 1
	}
	if maxN > len(tokens) {
		maxN = len(tokens)
	}
	var grams []string
	for n := minN; n <= maxN; n++ {
		for i := 0; i+n <= len(tokens); i++ {
			grams = append(grams, strings.Join(tokens[i:i+n], " "))
		}
	}
	return grams
}
