package corpus

// Clone returns a copy of the corpus that can be mutated and rebuilt
// (Add/AddAll + Build, AppendBuild) without disturbing the original.
// Documents, the positional index and the frequency statistics are
// copied. Each document's token stream is shared: no method writes
// into one once built (Build replaces them all, AppendBuild appends
// new documents' streams to the clone's own list), and sharing them
// roughly halves the bytes a clone allocates. This is the corpus half
// of the server's copy-on-write snapshot commit (internal/state):
// readers keep querying the original while a writer grows the clone.
func (c *Corpus) Clone() *Corpus {
	out := &Corpus{
		lang:  c.lang,
		docs:  append([]Document(nil), c.docs...),
		built: c.built,
		total: c.total,
		index: make(map[string][]Posting, len(c.index)),
		df:    make(map[string]int, len(c.df)),
	}
	if c.tokens != nil {
		out.tokens = append([][]string(nil), c.tokens...)
	}
	for tok, postings := range c.index {
		cp := make([]Posting, len(postings))
		copy(cp, postings)
		out.index[tok] = cp
	}
	for tok, n := range c.df {
		out.df[tok] = n
	}
	return out
}
