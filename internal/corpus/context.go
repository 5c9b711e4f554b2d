package corpus

import (
	"slices"
	"strings"

	"bioenrich/internal/graph"
	"bioenrich/internal/sparse"
	"bioenrich/internal/textutil"
)

// Context is the window of content words around one occurrence of a
// term, the unit the sense-induction and linkage steps operate on.
type Context struct {
	Doc   int32
	Pos   int32
	Words []string // content words within the window, term words excluded
}

// Contexts returns the content-word windows (window tokens on each
// side) around every occurrence of term. The term's own words are
// excluded from the window; stopwords and numerics are filtered.
func (c *Corpus) Contexts(term string, window int) []Context {
	var out []Context
	c.scanContexts(term, window,
		func(p Posting) { out = append(out, Context{Doc: p.Doc, Pos: p.Pos}) },
		func(w string) {
			last := &out[len(out)-1]
			last.Words = append(last.Words, w)
		})
	return out
}

// ContextVector aggregates all of a term's contexts into one sparse
// count vector — the term's distributional profile used by the
// semantic-linkage cosine.
func (c *Corpus) ContextVector(term string, window int) sparse.Vector {
	v := sparse.New(64)
	c.AddContextVector(v, term, window)
	return v
}

// AddContextVector adds the term's context counts (ContextVector's
// entries) into v in place. Counts are whole numbers, so adding
// several terms into one vector gives bit-for-bit the floats of
// summing their ContextVectors, without building any of them. Once v
// holds every word it will count, the scan allocates the same no
// matter how often the term occurs.
func (c *Corpus) AddContextVector(v sparse.Vector, term string, window int) {
	c.scanContexts(term, window, nil, func(w string) { v[w]++ })
}

// scanContexts is the one window scan behind Contexts and
// AddContextVector. For every occurrence of term, in posting order, it
// calls occurrence (when non-nil) and then word for each content word
// of the window around it, in position order: window tokens on each
// side, the term's own words excluded, one-letter tokens, numerics and
// stopwords filtered. Corpus tokens are canonical, so the stopword
// test is a plain lookup.
func (c *Corpus) scanContexts(term string, window int, occurrence func(Posting), word func(string)) {
	c.ensureBuilt()
	words := strings.Fields(textutil.NormalizeTerm(term))
	for _, p := range c.occurrences(words) {
		if occurrence != nil {
			occurrence(p)
		}
		toks := c.tokens[p.Doc]
		start, end := int(p.Pos), int(p.Pos)+len(words)
		lo, hi := max(start-window, 0), min(end+window, len(toks))
		for i := lo; i < hi; i++ {
			if i >= start && i < end {
				continue // the term itself
			}
			w := toks[i]
			if len(w) < 2 || slices.Contains(words, w) ||
				textutil.IsNumeric(w) || textutil.IsStopword(w, c.lang) {
				continue
			}
			word(w)
		}
	}
}

// TermCooccurrenceGraph builds a co-occurrence graph restricted to the
// given vocabulary (e.g. the extracted candidate terms plus ontology
// labels), at sentence-window granularity. Multi-word vocabulary
// entries are matched as phrases.
func (c *Corpus) TermCooccurrenceGraph(vocab []string, window int) *graph.Graph {
	c.ensureBuilt()
	g := graph.New()
	// Locate all occurrences per vocab entry, grouped by document.
	type hit struct {
		term string
		pos  int32
	}
	byDoc := make(map[int32][]hit)
	for _, term := range vocab {
		nt := textutil.NormalizeTerm(term)
		g.AddNode(nt)
		for _, p := range c.Occurrences(nt) {
			byDoc[p.Doc] = append(byDoc[p.Doc], hit{term: nt, pos: p.Pos})
		}
	}
	for _, hits := range byDoc {
		for i := 0; i < len(hits); i++ {
			for j := i + 1; j < len(hits); j++ {
				d := hits[j].pos - hits[i].pos
				if d < 0 {
					d = -d
				}
				if d <= int32(window) && hits[i].term != hits[j].term {
					g.AddEdge(hits[i].term, hits[j].term, 1)
				}
			}
		}
	}
	return g
}

// EgoCooccurrence builds the local co-occurrence graph around a single
// term: nodes are the content words of the term's contexts; an edge
// joins two words appearing in the same context window. The term
// itself is added as a node connected to every context word. This is
// the induced graph from which step II's 12 graph features are read.
func (c *Corpus) EgoCooccurrence(term string, window int) *graph.Graph {
	nt := textutil.NormalizeTerm(term)
	g := graph.New()
	g.AddNode(nt)
	for _, ctx := range c.Contexts(nt, window) {
		for i, a := range ctx.Words {
			g.AddEdge(nt, a, 1)
			for _, b := range ctx.Words[i+1:] {
				if a != b {
					g.AddEdge(a, b, 1)
				}
			}
		}
	}
	return g
}
