package postag

import "bioenrich/internal/textutil"

// MaxTermWords bounds candidate term length; BIOTEX extracts terms of
// up to four content words.
const MaxTermWords = 4

// Candidate is one syntactically valid term candidate span within a
// tagged sentence: the words tagged[Start : Start+Len].
type Candidate struct {
	Start int // index of the first word in the sentence
	Len   int // number of words, 1..MaxTermWords
}

// validSpan reports whether the tag sequence forms a term candidate in
// the given language.
//
// English noun phrases are left-modified: (JJ|NN)* NN — "severe corneal
// injury". French and Spanish are right-modified with an optional
// prepositional attachment: NN JJ* (IN DT? NN JJ*)? — "maladie de
// crohn", "infeccion bacteriana aguda".
func validSpan(tags []Tag, lang textutil.Lang) bool {
	n := len(tags)
	if n == 0 || n > MaxTermWords {
		return false
	}
	if lang == textutil.English {
		for i := 0; i < n-1; i++ {
			if tags[i] != Adjective && tags[i] != Noun {
				return false
			}
		}
		return tags[n-1] == Noun
	}
	// Romance pattern, parsed left to right.
	if tags[0] != Noun {
		return false
	}
	i := 1
	// Trailing adjectives of the head noun.
	for i < n && tags[i] == Adjective {
		i++
	}
	if i == n {
		return true
	}
	// A second bare noun ("cancer poumon" won't occur but "syndrome
	// gilles" style apposition does).
	if tags[i] == Noun {
		i++
		for i < n && tags[i] == Adjective {
			i++
		}
		return i == n
	}
	// Prepositional attachment: IN DT? NN JJ*.
	if tags[i] != Preposition {
		return false
	}
	i++
	if i < n && tags[i] == Determiner {
		i++
	}
	if i >= n || tags[i] != Noun {
		return false
	}
	i++
	for i < n && tags[i] == Adjective {
		i++
	}
	return i == n
}

// stopEdge reports whether a candidate may not start or end with this
// word (stopwords never begin or end a term, even when tagged Noun by
// the open-class default).
func stopEdge(w string, lang textutil.Lang) bool {
	return textutil.IsStopword(w, lang) || textutil.IsNumeric(w)
}

// Candidates appends to dst every syntactically valid candidate span
// (all lengths 1..MaxTermWords) of a tagged sentence and returns the
// extended slice, so a caller that reuses dst pays no allocation per
// span. Spans whose first or last word is a stopword are rejected;
// interior stopwords are allowed only in the Romance prepositional
// pattern.
func Candidates(dst []Candidate, tagged []TaggedWord, lang textutil.Lang) []Candidate {
	var tags [MaxTermWords]Tag
	n := len(tagged)
	for start := 0; start < n; start++ {
		for length := 1; length <= MaxTermWords && start+length <= n; length++ {
			span := tagged[start : start+length]
			ok := true
			for i, tw := range span {
				tags[i] = tw.Tag
				if tw.Word == "" {
					ok = false
					break
				}
			}
			if !ok || !validSpan(tags[:length], lang) {
				continue
			}
			if stopEdge(span[0].Word, lang) || stopEdge(span[length-1].Word, lang) {
				continue
			}
			// Reject adjacent duplicate words ("injury injury"): never
			// a real term, but frequent in noisy token streams.
			dup := false
			for i := 1; i < length; i++ {
				if span[i].Word == span[i-1].Word {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			// Interior stopwords: only prepositions of the Romance
			// pattern may be stopwords.
			interiorOK := true
			for i := 1; i < length-1; i++ {
				if textutil.IsStopword(span[i].Word, lang) &&
					span[i].Tag != Preposition && span[i].Tag != Determiner {
					interiorOK = false
					break
				}
			}
			if !interiorOK {
				continue
			}
			dst = append(dst, Candidate{Start: start, Len: length})
		}
	}
	return dst
}
