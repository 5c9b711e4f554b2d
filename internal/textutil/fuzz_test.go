package textutil

import (
	"strings"
	"testing"
	"unicode"
)

// Native fuzz targets: `go test` exercises the seed corpus; `go test
// -fuzz` explores further. The invariants are crash-freedom plus the
// offset/ordering guarantees the indexer depends on.

func FuzzTokenize(f *testing.F) {
	for _, seed := range []string{
		"", "corneal injury", "l'hôpital X-ray 3.14", "…—🧬 ADN",
		"a-b-c d'e f", "\x00\xff invalid utf8 \x80", "ＡＢＣ　ｄｅｆ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		prev := -1
		for _, tok := range Tokenize(s) {
			if tok.Start < 0 || tok.End > len(s) || tok.Start >= tok.End {
				t.Fatalf("bad span %+v for %q", tok, s)
			}
			if tok.Start <= prev {
				t.Fatalf("tokens out of order for %q", s)
			}
			prev = tok.Start
			if s[tok.Start:tok.End] != tok.Text {
				t.Fatalf("offset mismatch %q vs %q", tok.Text, s[tok.Start:tok.End])
			}
		}
	})
}

func FuzzSentences(f *testing.F) {
	for _, seed := range []string{
		"", "One. Two! Three?", "e.g. i.e. 3.14 Dr. Smith.",
		"no terminator", "!!!", "a;b;c", "¿Qué? ¡Sí!",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, sent := range Sentences(s) {
			if sent == "" {
				t.Fatalf("empty sentence for %q", s)
			}
		}
	})
}

// FuzzNormalizeStem checks that Normalize is idempotent: a normalized
// token normalizes to itself.
func FuzzNormalizeStem(f *testing.F) {
	for _, seed := range []string{
		"Injuries", "MALADIES", "enfermedades", "œdème", "", "a",
		"x-linked", "βλα", "12345",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n := Normalize(s)
		if Normalize(n) != n {
			t.Fatalf("Normalize not idempotent on %q", s)
		}
	})
}

// FuzzCanonicalKeys pins the precondition of the canonical-key
// lookups (IsStopword, ontology.HasTerm): every token the corpus
// pipeline emits — Normalize of a Words token — is its own
// NormalizeTerm, and so is any space-join of such tokens. Callers that
// hold those tokens, or n-grams joined from them, look them up without
// normalizing again.
func FuzzCanonicalKeys(f *testing.F) {
	for _, seed := range []string{
		"İstanbul", "ǅemal", "ﬁne Straße", "\u212a \u212b", "ᾈ",
		"l'Hôpital X-ray", "ΣΊΣΥΦΟΣ", "Ǉubljana ǈ", "e\u0301clair",
	} {
		f.Add(seed)
	}
	f.Fuzz(checkCanonicalKeys)
}

func checkCanonicalKeys(t *testing.T, s string) {
	var toks []string
	for _, w := range Words(s) {
		n := Normalize(w)
		if n == "" {
			continue
		}
		if got := NormalizeTerm(n); got != n {
			t.Fatalf("token %q of %q: NormalizeTerm(%q) = %q", w, s, n, got)
		}
		toks = append(toks, n)
	}
	if join := strings.Join(toks, " "); NormalizeTerm(join) != join {
		t.Fatalf("join of %q: NormalizeTerm(%q) = %q", s, join, NormalizeTerm(join))
	}
}

// TestCanonicalKeysSweep runs FuzzCanonicalKeys' check on every letter
// and digit rune, alone and inside a hyphenated token (a<r>-<r>b).
func TestCanonicalKeysSweep(t *testing.T) {
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			continue
		}
		s := string(r)
		checkCanonicalKeys(t, s)
		checkCanonicalKeys(t, "a"+s+"-"+s+"b")
	}
}
