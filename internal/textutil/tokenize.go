package textutil

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Token is a single lexical unit located in its source text.
type Token struct {
	Text  string // the token text as it appeared (not normalized)
	Start int    // byte offset of the first byte in the source
	End   int    // byte offset one past the last byte in the source
}

// isWordRune reports whether r can be part of a word token. Hyphens and
// apostrophes are handled separately because they join word parts only
// when surrounded by letters ("l'hôpital", "X-ray").
func isWordRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// Tokenize splits text into word tokens. A token is a maximal run of
// letters and digits, possibly containing internal hyphens or
// apostrophes when both neighbours are word runes. Punctuation is
// dropped. Offsets refer to byte positions in the input, and each
// token's Text is the substring text[Start:End], not a copy. Runes are
// decoded in place: an invalid byte decodes to U+FFFD, which is not a
// word rune, and advances one byte, as ranging over the string does.
func Tokenize(text string) []Token {
	var tokens []Token
	i := 0
	for i < len(text) {
		r, w := utf8.DecodeRuneInString(text[i:])
		if !isWordRune(r) {
			i += w
			continue
		}
		start := i
		i += w
		for i < len(text) {
			r, w := utf8.DecodeRuneInString(text[i:])
			if isWordRune(r) {
				i += w
				continue
			}
			// Internal joiner: hyphen or apostrophe between word runes.
			if r == '-' || r == '\'' || r == '’' {
				if next, _ := utf8.DecodeRuneInString(text[i+w:]); isWordRune(next) {
					i += w
					continue
				}
			}
			break
		}
		tokens = append(tokens, Token{Text: text[start:i], Start: start, End: i})
	}
	return tokens
}

// Words is a convenience wrapper around Tokenize returning only the
// token strings.
func Words(text string) []string {
	toks := Tokenize(text)
	if len(toks) == 0 {
		return nil
	}
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Text
	}
	return out
}

// sentenceEnder reports whether r terminates a sentence.
func sentenceEnder(r rune) bool {
	return r == '.' || r == '!' || r == '?' || r == ';'
}

// Sentences splits text into sentences on ., !, ?, and ; boundaries.
// Common abbreviation traps ("e.g.", "i.e.", "Dr.", decimal numbers)
// are avoided with a lookahead heuristic: a period followed by a
// lowercase letter or a digit does not end a sentence.
func Sentences(text string) []string {
	var out []string
	runes := []rune(text)
	start := 0
	for i := 0; i < len(runes); i++ {
		if !sentenceEnder(runes[i]) {
			continue
		}
		// Lookahead: skip whitespace after the ender.
		j := i + 1
		for j < len(runes) && runes[j] == runes[i] {
			j++ // collapse "..." or "!!"
		}
		k := j
		for k < len(runes) && unicode.IsSpace(runes[k]) {
			k++
		}
		if runes[i] == '.' {
			// Decimal number "3.14" or intra-abbrev ".g." do not split.
			if k < len(runes) && (unicode.IsLower(runes[k]) || unicode.IsDigit(runes[k])) {
				i = j - 1
				continue
			}
			// Single-letter abbreviation before the period ("e." in "e.g.").
			if i >= 1 && unicode.IsLetter(runes[i-1]) &&
				(i == 1 || !isWordRune(runes[i-2])) {
				i = j - 1
				continue
			}
		}
		s := strings.TrimSpace(string(runes[start:j]))
		if s != "" {
			out = append(out, s)
		}
		start = k
		i = k - 1
	}
	if tail := strings.TrimSpace(string(runes[start:])); tail != "" {
		out = append(out, tail)
	}
	return out
}
