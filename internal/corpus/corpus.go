// Package corpus implements the text-database substrate of the
// workflow: a document store with an inverted positional index, term
// frequency statistics, context-window extraction and co-occurrence
// graph construction. This plays the role PubMed plays in the paper —
// the corpus from which candidate terms and their contexts are drawn.
package corpus

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"bioenrich/internal/textutil"
)

// Document is one text unit (a PubMed-like abstract).
type Document struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Text  string `json:"text"`
}

// Posting locates one occurrence of a token: document index and token
// position within that document's token stream.
type Posting struct {
	Doc int32
	Pos int32
}

// Corpus is an indexed document collection for one language. Build the
// index with Add/AddAll followed by Build; all query methods require a
// built index.
type Corpus struct {
	lang  textutil.Lang
	docs  []Document
	built bool

	tokens [][]string           // normalized token stream per document
	index  map[string][]Posting // unigram positional index
	df     map[string]int       // document frequency per unigram
	total  int                  // total token count
}

// New returns an empty corpus for lang.
func New(lang textutil.Lang) *Corpus {
	return &Corpus{
		lang:  lang,
		index: make(map[string][]Posting),
		df:    make(map[string]int),
	}
}

// Lang returns the corpus language.
func (c *Corpus) Lang() textutil.Lang { return c.lang }

// Add appends a document. Invalidates the index until Build is called
// again.
func (c *Corpus) Add(doc Document) {
	c.docs = append(c.docs, doc)
	c.built = false
}

// AddAll appends all documents.
func (c *Corpus) AddAll(docs []Document) {
	c.docs = append(c.docs, docs...)
	c.built = false
}

// NumDocs returns the number of documents.
func (c *Corpus) NumDocs() int { return len(c.docs) }

// NumTokens returns the total number of indexed tokens (0 before
// Build).
func (c *Corpus) NumTokens() int { return c.total }

// Doc returns document i.
func (c *Corpus) Doc(i int) Document { return c.docs[i] }

// Documents returns the underlying document slice (not a copy; treat
// as read-only).
func (c *Corpus) Documents() []Document { return c.docs }

// tokenizeDocs normalizes docs into per-document token streams, in
// parallel (tokenization dominates build cost and is embarrassingly
// parallel). The result is positionally aligned with docs.
func tokenizeDocs(docs []Document) [][]string {
	n := len(docs)
	out := make([][]string, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				text := docs[i].Title + ". " + docs[i].Text
				raw := textutil.Words(text)
				toks := make([]string, 0, len(raw))
				for _, t := range raw {
					if nt := textutil.Normalize(t); nt != "" {
						toks = append(toks, nt)
					}
				}
				out[i] = toks
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// mergeDocTokens folds one document's token stream into the index:
// postings in position order, one df increment per distinct token, the
// total bumped by the stream length.
func (c *Corpus) mergeDocTokens(doc int, toks []string) {
	seen := make(map[string]bool, len(toks))
	for p, tok := range toks {
		c.index[tok] = append(c.index[tok], Posting{Doc: int32(doc), Pos: int32(p)})
		if !seen[tok] {
			seen[tok] = true
			c.df[tok]++
		}
	}
	c.total += len(toks)
}

// Build tokenizes every document (concurrently) and constructs the
// positional inverted index. Safe to call repeatedly; it rebuilds from
// scratch.
func (c *Corpus) Build() {
	c.tokens = tokenizeDocs(c.docs)

	// Merge into the index sequentially (postings must stay in
	// document order for the phrase scan).
	c.index = make(map[string][]Posting)
	c.df = make(map[string]int)
	c.total = 0
	for i, toks := range c.tokens {
		c.mergeDocTokens(i, toks)
	}
	c.built = true
}

// AppendBuild appends docs and extends the built index incrementally:
// only the appended documents are tokenized, and their postings,
// document frequencies and token counts merge into the existing
// structures. Appended documents always receive higher indices than
// every indexed one, so the merged postings extend each token's list
// in document order and the result is indistinguishable from
// AddAll + Build — at O(batch) instead of O(corpus) cost. This is what
// makes a copy-on-write ingest cheap: Clone() already copied the
// index, and AppendBuild grows that copy instead of discarding it. On
// an unbuilt corpus it degrades to a full Build.
func (c *Corpus) AppendBuild(docs []Document) {
	if !c.built {
		c.AddAll(docs)
		c.Build()
		return
	}
	base := len(c.docs)
	c.docs = append(c.docs, docs...)
	toks := tokenizeDocs(docs)
	for i, t := range toks {
		c.mergeDocTokens(base+i, t)
	}
	c.tokens = append(c.tokens, toks...)
}

// ensureBuilt panics with a clear message when a query method is used
// before Build — a programming error, not a runtime condition.
func (c *Corpus) ensureBuilt() {
	if !c.built {
		panic("corpus: query before Build()")
	}
}

// Occurrences returns every position at which the (normalized,
// space-separated, possibly multi-word) term occurs. Multi-word terms
// are located by scanning the postings of their rarest word and
// verifying the surrounding tokens.
func (c *Corpus) Occurrences(term string) []Posting {
	c.ensureBuilt()
	return c.occurrences(strings.Fields(textutil.NormalizeTerm(term)))
}

// occurrences is Occurrences for a term already split into canonical
// words.
func (c *Corpus) occurrences(words []string) []Posting {
	if len(words) == 0 {
		return nil
	}
	if len(words) == 1 {
		return c.index[words[0]]
	}
	// Anchor on the rarest word to minimize verification work.
	anchor := 0
	for i, w := range words {
		if len(c.index[w]) < len(c.index[words[anchor]]) {
			anchor = i
		}
	}
	var out []Posting
	for _, p := range c.index[words[anchor]] {
		start := int(p.Pos) - anchor
		if start < 0 {
			continue
		}
		toks := c.tokens[p.Doc]
		if start+len(words) > len(toks) {
			continue
		}
		match := true
		for i, w := range words {
			if toks[start+i] != w {
				match = false
				break
			}
		}
		if match {
			out = append(out, Posting{Doc: p.Doc, Pos: int32(start)})
		}
	}
	return out
}

// TF returns the collection frequency of a (possibly multi-word) term.
func (c *Corpus) TF(term string) int {
	return len(c.Occurrences(term))
}

// DF returns the number of distinct documents containing the term.
func (c *Corpus) DF(term string) int {
	occ := c.Occurrences(term)
	seen := make(map[int32]bool, len(occ))
	for _, p := range occ {
		seen[p.Doc] = true
	}
	return len(seen)
}

// Tokens returns the normalized token stream of document i (read-only).
func (c *Corpus) Tokens(i int) []string {
	c.ensureBuilt()
	return c.tokens[i]
}

// Vocabulary returns the number of distinct unigrams.
func (c *Corpus) Vocabulary() int {
	c.ensureBuilt()
	return len(c.index)
}

// AvgDocLen returns the mean token count per document.
func (c *Corpus) AvgDocLen() float64 {
	c.ensureBuilt()
	if len(c.docs) == 0 {
		return 0
	}
	return float64(c.total) / float64(len(c.docs))
}

// String describes the corpus for logs.
func (c *Corpus) String() string {
	return fmt.Sprintf("corpus{lang=%s docs=%d tokens=%d}", c.lang, len(c.docs), c.total)
}
