// Package loadtest generates the seeded /v1 traffic that the repository
// benchmark (perfbench) sends to a live bioenrich server: a weighted Mix
// of op classes, and a Gen that turns a seed into the op sequence and
// the request payloads (search queries, classify and recommend texts,
// ingestable documents). Its output is a pure function of the seed, and
// the biolint determinism gate covers the package. perfbench compiles
// it from each checkout it measures, so TestTrafficGolden pins those
// bytes: two checkouts that pass it send the server identical traffic.
package loadtest

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"bioenrich/internal/corpus"
	"bioenrich/internal/synth"
)

// Op names one traffic class in a workload mix. The mix models the
// workloads the repo reproduces: BM25 search, Elberrichi-style
// document classification, NCBO-Recommender-style ontology ranking,
// document ingestion and async enrichment jobs (submitted, then
// polled to completion).
type Op string

const (
	OpSearch    Op = "search"
	OpClassify  Op = "classify"
	OpRecommend Op = "recommend"
	OpIngest    Op = "ingest"
	OpEnrich    Op = "enrich"
)

// allOps is the canonical op order. Cumulative sampling follows it,
// so a given seed always produces the same op sequence whatever order
// the mix spec listed its ops in.
var allOps = []Op{OpSearch, OpClassify, OpRecommend, OpIngest, OpEnrich}

// Mix is a weighted workload blend. The zero value is invalid; build
// one with ParseMix.
type Mix struct {
	weights map[Op]int
	total   int
}

// ParseMix parses "search=50,classify=25,ingest=10" into a Mix.
// Unknown ops and non-positive weights are errors; ops omitted get
// weight zero. At least one weight must be positive.
func ParseMix(s string) (Mix, error) {
	m := Mix{weights: make(map[Op]int)}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return Mix{}, fmt.Errorf("mix: want op=weight, got %q", part)
		}
		op := Op(strings.TrimSpace(name))
		if !validOp(op) {
			return Mix{}, fmt.Errorf("mix: unknown op %q (want one of %s)", name, opList())
		}
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || w <= 0 {
			return Mix{}, fmt.Errorf("mix: weight for %q must be a positive integer, got %q", name, val)
		}
		if _, dup := m.weights[op]; dup {
			return Mix{}, fmt.Errorf("mix: duplicate op %q", name)
		}
		m.weights[op] = w
		m.total += w
	}
	if m.total == 0 {
		return Mix{}, fmt.Errorf("mix: no positive weights in %q", s)
	}
	return m, nil
}

func validOp(op Op) bool {
	for _, o := range allOps {
		if o == op {
			return true
		}
	}
	return false
}

func opList() string {
	parts := make([]string, len(allOps))
	for i, o := range allOps {
		parts[i] = string(o)
	}
	return strings.Join(parts, "|")
}

// Pick samples one op from the mix using r. Sampling walks allOps
// cumulatively, so the op sequence is a pure function of the seed.
func (m Mix) Pick(r *rand.Rand) Op {
	n := r.Intn(m.total)
	for _, op := range allOps {
		n -= m.weights[op]
		if n < 0 {
			return op
		}
	}
	return allOps[len(allOps)-1] // unreachable: weights sum to total
}

// Gen deterministically produces request payloads from a seeded
// vocabulary of synth's biomedical pseudo-words. Generating with the
// same seed family as gencorpus/internal/synth means queries and
// classified texts share morphology — and a good fraction of actual
// tokens — with the corpus under test, so searches hit postings and
// classification exercises real scoring instead of all-miss paths.
// Not goroutine-safe: each worker owns one, seeded with a derived
// per-worker seed.
type Gen struct {
	r      *rand.Rand
	vocab  []string
	worker int
	docSeq int
}

// NewGen builds a generator over a vocabulary of vocabSize
// pseudo-words derived from seed; worker disambiguates ingested
// document IDs across concurrent workers.
func NewGen(seed int64, vocabSize, worker int) *Gen {
	if vocabSize <= 0 {
		vocabSize = 400
	}
	vocab := synth.NewWordGen(seed).Words(vocabSize)
	sort.Strings(vocab) // canonical order; sampling indexes are seeded anyway
	return &Gen{
		r:      rand.New(rand.NewSource(seed + int64(worker)*7919)),
		vocab:  vocab,
		worker: worker,
	}
}

// Pick samples the next op from m using this generator's seeded
// source.
func (g *Gen) Pick(m Mix) Op { return m.Pick(g.r) }

func (g *Gen) words(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = g.vocab[g.r.Intn(len(g.vocab))]
	}
	return out
}

// Query returns a 1–2 word search query.
func (g *Gen) Query() string {
	return strings.Join(g.words(1+g.r.Intn(2)), " ")
}

// Text returns an n-word pseudo-abstract for classify/recommend
// bodies.
func (g *Gen) Text(n int) string {
	return strings.Join(g.words(n), " ")
}

// Documents returns n ingestable documents of about `words` words
// each, with IDs unique per (seed, worker, sequence) so concurrent
// ingestion never collides.
func (g *Gen) Documents(n, words int) []corpus.Document {
	docs := make([]corpus.Document, n)
	for i := range docs {
		g.docSeq++
		docs[i] = corpus.Document{
			ID:    fmt.Sprintf("loadgen-w%d-%06d", g.worker, g.docSeq),
			Title: g.Text(4),
			Text:  g.Text(words),
		}
	}
	return docs
}
