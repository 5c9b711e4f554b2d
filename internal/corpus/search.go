package corpus

import (
	"math"
	"sort"

	"bioenrich/internal/textutil"
)

// SearchHit is one ranked document for a query.
type SearchHit struct {
	Doc   int // document index (use Doc(i) for content)
	ID    string
	Score float64
}

// Search ranks documents against a free-text query with Okapi BM25
// (k1 = 1.2, b = 0.75), the retrieval model the paper's corpus
// collection step uses implicitly when pulling PubMed contexts for a
// term. Stopwords in the query are ignored. Returns the top n hits.
func (c *Corpus) Search(query string, n int) []SearchHit {
	c.ensureBuilt()
	const k1, b = 1.2, 0.75
	terms := textutil.ContentWords(query, c.lang)
	if len(terms) == 0 {
		return nil
	}
	nDocs := float64(len(c.docs))
	avg := c.AvgDocLen()
	scores := make(map[int32]float64)
	for _, term := range terms {
		postings := c.postings(term)
		if len(postings) == 0 {
			continue
		}
		// Per-document term frequency.
		tf := make(map[int32]int)
		for _, p := range postings {
			tf[p.Doc]++
		}
		df := float64(len(tf))
		idf := math.Log((nDocs-df+0.5)/(df+0.5) + 1)
		for doc, f := range tf {
			dl := float64(len(c.tokens[doc]))
			tfNorm := (float64(f) * (k1 + 1)) /
				(float64(f) + k1*(1-b+b*dl/avg))
			scores[doc] += idf * tfNorm
		}
	}
	hits := make([]SearchHit, 0, len(scores))
	for doc, s := range scores {
		hits = append(hits, SearchHit{Doc: int(doc), ID: c.docs[doc].ID, Score: s})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].ID < hits[j].ID
	})
	if n > 0 && n < len(hits) {
		hits = hits[:n]
	}
	return hits
}
