package corpus

import (
	"maps"
	"slices"
)

// spareHeaders is the room a clone's posting-header array leaves for
// new tokens, so that the first few an ingest adds do not copy every
// header again.
const spareHeaders = 256

// Clone returns a copy of the corpus that can be mutated and rebuilt
// (Add/AddAll + Build, AppendBuild) without disturbing the original.
// It shares the documents, the token streams, ids and every posting
// array with the original, each shared slice capped at its length, so
// that any append by the clone, or by a sibling clone, copies first;
// the original's own appends land past every clone's length. It
// copies only the posting-list headers, into an array of its own with
// spareHeaders of room, and newIDs, so a clone costs a constant number
// of allocations, and the ingest that follows pays for the lists it
// extends. The clone's Slot starts empty. This is the corpus
// half of the server's copy-on-write snapshot commit (internal/state):
// readers keep querying the original while a writer grows the clone.
func (c *Corpus) Clone() *Corpus {
	out := &Corpus{
		lang:   c.lang,
		docs:   slices.Clip(c.docs),
		built:  c.built,
		tokens: slices.Clip(c.tokens),
		ids:    c.ids,
		newIDs: maps.Clone(c.newIDs),
		post:   make([][]Posting, len(c.post), len(c.post)+spareHeaders),
		total:  c.total,
	}
	for id, p := range c.post {
		out.post[id] = slices.Clip(p)
	}
	return out
}
