package corpus

import (
	"context"
	"slices"
	"strings"

	"bioenrich/internal/graph"
	"bioenrich/internal/sparse"
	"bioenrich/internal/textutil"
)

// ContextWindow is the window, in tokens either side of an occurrence,
// of every context the pipeline harvests: step II's features, step
// III's senses, step IV's context vectors and classify's concept
// profiles all count over it.
const ContextWindow = 8

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
//
// Every window's words sit in one array sized for the longest windows
// the occurrences can have (2×window words each), and each Words is
// cut to its own length and capacity, so appending to one window
// copies it instead of overwriting the next.
func (c *Corpus) Contexts(term string, window int) []Context {
	c.ensureBuilt()
	words := strings.Fields(textutil.NormalizeTerm(term))
	occs := c.occurrences(words)
	out := make([]Context, len(occs))
	all := make([]string, 0, 2*max(window, 0)*len(occs))
	add := func(w string) { all = append(all, w) }
	for i, p := range occs {
		lo := len(all)
		c.eachWindowWord(words, p, window, add)
		out[i] = Context{Doc: p.Doc, Pos: p.Pos, Words: all[lo:len(all):len(all)]}
	}
	return out
}

// ContextVector aggregates all of a term's contexts into one sparse
// count vector — the term's distributional profile used by the
// semantic-linkage cosine.
func (c *Corpus) ContextVector(term string, window int) sparse.Vector {
	v := sparse.New(64)
	c.EachContextWord(term, window, func(w string) { v[w]++ })
	return v
}

// EachContextWord calls word for every word ContextVector counts, once
// per count: the content words of the windows around every occurrence
// of term, occurrences in posting order and words in position order.
// A caller that sums several terms' contexts counts them straight into
// its own store, and the scan allocates the same however often the
// term occurs.
func (c *Corpus) EachContextWord(term string, window int, word func(string)) {
	c.ensureBuilt()
	words := strings.Fields(textutil.NormalizeTerm(term))
	for _, p := range c.occurrences(words) {
		c.eachWindowWord(words, p, window, word)
	}
}

// eachWindowWord is the one window scan behind Contexts and
// EachContextWord: it calls word for each content word of the window
// around the occurrence at p of the term spelled by words, in position
// order: window tokens on each side, the term's own words excluded,
// one-letter tokens, numerics and stopwords filtered. Corpus tokens
// are canonical, so the stopword test is a plain lookup.
func (c *Corpus) eachWindowWord(words []string, p Posting, window int, word func(string)) {
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

// TermCooccurrenceGraph builds a co-occurrence graph restricted to the
// given vocabulary (e.g. the extracted candidate terms plus ontology
// labels), at sentence-window granularity. Multi-word vocabulary
// entries are matched as phrases. It checks ctx once per vocabulary
// entry and once per document, and a cancelled build returns ctx's
// error.
func (c *Corpus) TermCooccurrenceGraph(ctx context.Context, vocab []string, window int) (*graph.Graph, error) {
	c.ensureBuilt()
	g := graph.New()
	// Locate all occurrences per vocab entry, grouped by document.
	type hit struct {
		term string
		pos  int32
	}
	byDoc := make(map[int32][]hit)
	for _, term := range vocab {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		nt := textutil.NormalizeTerm(term)
		g.AddNode(nt)
		for _, p := range c.Occurrences(nt) {
			byDoc[p.Doc] = append(byDoc[p.Doc], hit{term: nt, pos: p.Pos})
		}
	}
	for _, hits := range byDoc {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
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
	return g, nil
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
