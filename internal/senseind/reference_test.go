package senseind

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"bioenrich/internal/cluster"
	"bioenrich/internal/graph"
	"bioenrich/internal/sparse"
)

// referenceDF counts, per feature, the vectors in which the feature
// has non-zero weight: the document frequency the flat rows count per
// word id.
func referenceDF(vecs []sparse.Vector) map[string]int {
	df := make(map[string]int)
	for _, v := range vecs {
		for k, w := range v {
			if w != 0 {
				df[k]++
			}
		}
	}
	return df
}

// referenceTFIDF reweights each vector in place by tf × log(N/df),
// where N is the number of vectors, then L2-normalizes it.
func referenceTFIDF(vecs []sparse.Vector) {
	df := referenceDF(vecs)
	n := float64(len(vecs))
	for _, v := range vecs {
		for k, w := range v {
			idf := math.Log(n / float64(df[k]))
			v[k] = w * idf
		}
		v.Normalize()
	}
}

// referenceVectorize is the map-building Vectorize the flat rows
// replaced, kept as their reference.
func referenceVectorize(contexts [][]string, rep Representation) []sparse.Vector {
	vecs := make([]sparse.Vector, len(contexts))
	for i, ctx := range contexts {
		vecs[i] = sparse.FromCounts(ctx)
	}
	if rep == BagOfWords {
		referenceTFIDF(vecs)
		return vecs
	}
	g := graph.New()
	for _, ctx := range contexts {
		for i, a := range ctx {
			for _, b := range ctx[i+1:] {
				if a != b {
					g.AddEdge(a, b, 1)
				}
			}
		}
	}
	type edge struct {
		nb string
		w  float64
	}
	adj := make(map[string][]edge)
	out := make([]sparse.Vector, len(contexts))
	for i, ctx := range contexts {
		v := sparse.New(64)
		for _, w := range ctx {
			v[w]++
			edges, ok := adj[w]
			if !ok {
				for _, nb := range g.Neighbors(w) {
					edges = append(edges, edge{nb, g.Weight(w, nb)})
				}
				adj[w] = edges
			}
			for _, e := range edges {
				v[e.nb] += e.w
			}
		}
		v.Normalize()
		out[i] = v
	}
	return out
}

// referenceOneSense is the k = 1 induction the flat rows replaced:
// FromCounts, TF-IDF or the graph representation, cluster.Run at
// k = 1, then resultFrom.
func referenceOneSense(term string, contexts [][]string, alg cluster.Algorithm, rep Representation) (*Result, error) {
	cl, err := cluster.Run(alg, referenceVectorize(contexts, rep), 1, 1)
	if err != nil {
		return nil, fmt.Errorf("senseind: %w", err)
	}
	return resultFrom(term, cl), nil
}

// sameVector reports whether a and b hold the same features, zero
// weights included, with the same weights bit for bit.
func sameVector(a, b sparse.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for k, w := range a {
		bw, ok := b[k]
		if !ok || math.Float64bits(w) != math.Float64bits(bw) {
			return false
		}
	}
	return true
}

// checkAgainstReference requires Vectorize to equal referenceVectorize
// and a monosemic induction to equal referenceOneSense, bit for bit,
// under both representations and every algorithm.
func checkAgainstReference(t *testing.T, contexts [][]string) {
	t.Helper()
	for _, rep := range Representations {
		got, want := Vectorize(contexts, rep), referenceVectorize(contexts, rep)
		if len(got) != len(want) {
			t.Fatalf("%s: %d vectors, reference %d", rep, len(got), len(want))
		}
		for i := range got {
			if !sameVector(got[i], want[i]) {
				t.Fatalf("%s: vector %d = %v, reference %v (contexts %q)", rep, i, got[i], want[i], contexts)
			}
		}
		for _, alg := range cluster.Algorithms {
			in := New()
			in.Algorithm, in.Representation = alg, rep
			res, err := in.InduceFromContexts("t", contexts, false)
			ref, refErr := referenceOneSense("t", contexts, alg, rep)
			if len(contexts) == 0 {
				// Refused before the reference would cluster.
				if err == nil {
					t.Fatalf("%s/%s: no contexts accepted", alg, rep)
				}
				continue
			}
			if err != nil || refErr != nil {
				t.Fatalf("%s/%s: err %v, reference %v", alg, rep, err, refErr)
			}
			checkSameResult(t, fmt.Sprintf("%s/%s %q", alg, rep, contexts), res, ref)
		}
	}
}

// checkSameResult requires two induction results to agree on K, every
// sense's ID, size and top features (weights by their bits) and every
// unit centroid's features and bits.
func checkSameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if got.Term != want.Term || got.K != want.K || len(got.Senses) != len(want.Senses) || len(got.centroids) != len(want.centroids) {
		t.Fatalf("%s: term %q K %d with %d senses, reference %q K %d with %d",
			what, got.Term, got.K, len(got.Senses), want.Term, want.K, len(want.Senses))
	}
	for i, s := range got.Senses {
		ws := want.Senses[i]
		if s.ID != ws.ID || s.Size != ws.Size || len(s.Features) != len(ws.Features) {
			t.Fatalf("%s: sense %d = id %d size %d, %d features; reference id %d size %d, %d features",
				what, i, s.ID, s.Size, len(s.Features), ws.ID, ws.Size, len(ws.Features))
		}
		if (s.Features == nil) != (ws.Features == nil) {
			t.Fatalf("%s: sense %d features %#v, reference %#v", what, i, s.Features, ws.Features)
		}
		for j, f := range s.Features {
			wf := ws.Features[j]
			if f.Feature != wf.Feature || math.Float64bits(f.Weight) != math.Float64bits(wf.Weight) {
				t.Fatalf("%s: sense %d feature %d = %v, reference %v", what, i, j, f, wf)
			}
		}
		if !sameVector(got.centroids[i], want.centroids[i]) {
			t.Fatalf("%s: centroid %d = %v, reference %v", what, i, got.centroids[i], want.centroids[i])
		}
	}
}

// referenceWords spell the generated contexts; few enough that words
// repeat within and across windows.
var referenceWords = []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}

// genContexts spells up to 40 contexts of up to 16 words from data,
// one byte per choice (a choice past the end of data reads 0): the
// vocabulary size, the number of contexts, then each context's length
// and words.
func genContexts(data []byte) [][]string {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
	vocab := 1 + next(len(referenceWords))
	contexts := make([][]string, next(41))
	for i := range contexts {
		ctx := make([]string, next(17))
		for j := range ctx {
			ctx[j] = referenceWords[next(vocab)]
		}
		contexts[i] = ctx
	}
	return contexts
}

// TestFlatRowsMatchReference holds step III's flat rows to the
// map-building path they replaced, at k = 1 and for the vectors
// clustered at k ≥ 2, on hand-picked and generated context sets.
func TestFlatRowsMatchReference(t *testing.T) {
	for _, tc := range []struct {
		name     string
		contexts [][]string
	}{
		{"an empty window", [][]string{{}, {"a", "b"}, {"b"}}},
		{"only empty windows", [][]string{{}, {}}},
		{"a single context, every idf 0", [][]string{{"a", "b", "a", "c"}}},
		{"a word in every window", [][]string{{"x", "a"}, {"b", "x"}, {"x"}}},
		{"repeated words", [][]string{{"a", "a", "a", "b"}, {"b", "b", "c", "b"}, {"c"}}},
		{"fewer than 8 distinct features", [][]string{{"a", "b"}, {"c"}, {"a", "d"}}},
		{"ties beyond the top 8", [][]string{strings.Fields("a b c d e f g h i j k l"), strings.Fields("l k j i h g f e d c b a")}},
		{"no contexts", nil},
	} {
		t.Run(tc.name, func(t *testing.T) { checkAgainstReference(t, tc.contexts) })
	}
	// The synthetic WSD windows are longer and more varied.
	for _, e := range tinyWSD().Entities[:3] {
		checkAgainstReference(t, e.Contexts)
	}
	in := New()
	in.Algorithm = "bogus"
	_, err := in.InduceFromContexts("t", [][]string{{"a"}}, false)
	_, refErr := referenceOneSense("t", [][]string{{"a"}}, in.Algorithm, BagOfWords)
	if err == nil || refErr == nil || err.Error() != refErr.Error() {
		t.Errorf("unknown algorithm: err %v, reference %v", err, refErr)
	}
	r := rand.New(rand.NewSource(1))
	var sizes [3]int // sets of at most 1, 2 to 8 and more than 8 distinct words
	for i := 0; i < 300; i++ {
		data := make([]byte, 700)
		r.Read(data)
		contexts := genContexts(data)
		checkAgainstReference(t, contexts)
		distinct := map[string]bool{}
		for _, ctx := range contexts {
			for _, w := range ctx {
				distinct[w] = true
			}
		}
		switch {
		case len(distinct) <= 1:
			sizes[0]++
		case len(distinct) <= TopFeaturesPerSense:
			sizes[1]++
		default:
			sizes[2]++
		}
	}
	for i, n := range sizes {
		if n == 0 {
			t.Errorf("the generator never made a set in size class %d", i)
		}
	}
}

// FuzzVectorize holds the flat rows to the map-building reference on
// context sets spelled from the fuzzer's bytes.
func FuzzVectorize(f *testing.F) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 8, 64, 700} {
		data := make([]byte, n)
		r.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, genContexts(data))
	})
}

// TestDF: a word's idf counts the contexts that hold it, however often
// each holds it, and an empty context still counts toward N.
func TestDF(t *testing.T) {
	contexts := [][]string{{"a", "b", "b"}, {"a", "a", "a"}, {}}
	checkAgainstReference(t, contexts)
	vecs := Vectorize(contexts, BagOfWords)
	// Row 0 is (1·log(3/2), 2·log(3/1)) before normalization.
	if got, want := vecs[0]["b"]/vecs[0]["a"], 2*math.Log(3)/math.Log(1.5); math.Abs(got-want) > 1e-9 {
		t.Errorf("b/a weight ratio = %v, want %v", got, want)
	}
	if w := vecs[1]["a"]; math.Abs(w-1) > 1e-9 {
		t.Errorf("a alone weighs %v, want 1", w)
	}
	if len(vecs[2]) != 0 {
		t.Errorf("empty context vectorized to %v", vecs[2])
	}
}

// TestTFIDF: a word in every context weighs 0 and keeps its feature,
// and every non-zero vector is unit length.
func TestTFIDF(t *testing.T) {
	contexts := [][]string{{"common", "rare"}, {"common"}, {"common"}}
	checkAgainstReference(t, contexts)
	vecs := Vectorize(contexts, BagOfWords)
	if w, ok := vecs[0]["common"]; !ok || w != 0 {
		t.Errorf("common weight = %v (present %v), want 0", w, ok)
	}
	if w := vecs[0]["rare"]; math.Abs(w-1) > 1e-9 {
		t.Errorf("rare weight = %v, want 1", w)
	}
	for i, v := range vecs {
		if n := v.Norm(); n != 0 && math.Abs(n-1) > 1e-9 {
			t.Errorf("vec %d norm = %v", i, n)
		}
	}
}
