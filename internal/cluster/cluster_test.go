package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"bioenrich/internal/sparse"
)

// blobs generates nPerCluster vectors around each of k well-separated
// sparse prototypes.
func blobs(k, nPerCluster int, seed int64) ([]sparse.Vector, []int) {
	r := rand.New(rand.NewSource(seed))
	var vecs []sparse.Vector
	var labels []int
	for c := 0; c < k; c++ {
		// Each cluster lives on its own feature block with mild noise
		// on a shared block.
		for i := 0; i < nPerCluster; i++ {
			v := sparse.New(8)
			for f := 0; f < 6; f++ {
				v[featName(c, f)] = 1 + r.Float64()
			}
			v[featName(99, r.Intn(4))] = 0.3 * r.Float64() // shared noise
			vecs = append(vecs, v)
			labels = append(labels, c)
		}
	}
	// Shuffle to remove ordering signal.
	r.Shuffle(len(vecs), func(i, j int) {
		vecs[i], vecs[j] = vecs[j], vecs[i]
		labels[i], labels[j] = labels[j], labels[i]
	})
	return vecs, labels
}

func featName(c, f int) string {
	return string(rune('A'+c)) + string(rune('a'+f))
}

// purity measures agreement between a clustering and gold labels.
func purity(c *Clustering, labels []int) float64 {
	total := 0
	for i := 0; i < c.K; i++ {
		counts := map[int]int{}
		for _, m := range c.Members(i) {
			counts[labels[m]]++
		}
		best := 0
		for _, n := range counts {
			if n > best {
				best = n
			}
		}
		total += best
	}
	return float64(total) / float64(len(labels))
}

func TestAllAlgorithmsRecoverBlobs(t *testing.T) {
	vecs, labels := blobs(3, 15, 1)
	for _, alg := range Algorithms {
		c, err := Run(alg, vecs, 3, 7)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: invalid clustering: %v", alg, err)
		}
		if p := purity(c, labels); p < 0.9 {
			t.Errorf("%s purity = %.3f on separable blobs", alg, p)
		}
	}
}

func TestRunErrors(t *testing.T) {
	vecs, _ := blobs(2, 3, 2)
	if _, err := Run(Direct, vecs, 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Run(Direct, nil, 2, 1); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Run(Direct, vecs, 100, 1); err == nil {
		t.Error("k > n accepted")
	}
	if _, err := Run("bogus", vecs, 2, 1); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestISIMESIMBounds(t *testing.T) {
	vecs, _ := blobs(3, 10, 3)
	c, err := Run(Direct, vecs, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.K; i++ {
		isim, esim := c.ISIM(i), c.ESIM(i)
		if isim < -1e-9 || isim > 1+1e-9 {
			t.Errorf("ISIM(%d) = %v out of [0,1]", i, isim)
		}
		if esim < -1e-9 || esim > 1+1e-9 {
			t.Errorf("ESIM(%d) = %v out of [0,1]", i, esim)
		}
		// Well-separated blobs: internal similarity exceeds external.
		if isim <= esim {
			t.Errorf("cluster %d: ISIM %.3f <= ESIM %.3f on separable data",
				i, isim, esim)
		}
	}
}

func TestISIMSingleton(t *testing.T) {
	vecs := []sparse.Vector{{"a": 1}, {"b": 1}}
	c, err := Run(Direct, vecs, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.K; i++ {
		if c.Size(i) == 1 && c.ISIM(i) != 1 {
			t.Errorf("singleton ISIM = %v, want 1", c.ISIM(i))
		}
	}
}

func TestISIMMatchesBruteForce(t *testing.T) {
	vecs, _ := blobs(2, 8, 5)
	c, err := Run(Direct, vecs, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.K; i++ {
		members := c.Members(i)
		if len(members) < 2 {
			continue
		}
		var sum float64
		var pairs int
		for a := 0; a < len(members); a++ {
			for b := a + 1; b < len(members); b++ {
				sum += c.vecs[members[a]].Cosine(c.vecs[members[b]])
				pairs++
			}
		}
		brute := sum / float64(pairs)
		if math.Abs(brute-c.ISIM(i)) > 1e-9 {
			t.Errorf("ISIM(%d) = %v, brute force = %v", i, c.ISIM(i), brute)
		}
	}
}

func TestESIMMatchesBruteForce(t *testing.T) {
	vecs, _ := blobs(2, 6, 6)
	c, err := Run(Direct, vecs, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.K; i++ {
		in := c.Members(i)
		var out []int
		for j := range vecs {
			if c.Assign[j] != i {
				out = append(out, j)
			}
		}
		if len(in) == 0 || len(out) == 0 {
			continue
		}
		var sum float64
		for _, a := range in {
			for _, b := range out {
				sum += c.vecs[a].Cosine(c.vecs[b])
			}
		}
		brute := sum / float64(len(in)*len(out))
		if math.Abs(brute-c.ESIM(i)) > 1e-9 {
			t.Errorf("ESIM(%d) = %v, brute force = %v", i, c.ESIM(i), brute)
		}
	}
}

func TestIndexValues(t *testing.T) {
	vecs, _ := blobs(3, 10, 7)
	c, err := Run(Direct, vecs, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range Indexes {
		v := ix.Value(c)
		if math.IsNaN(v) {
			t.Errorf("index %s is NaN", ix)
		}
	}
	// ak is an average of ISIMs, so within [0,1] here.
	if a := AK.Value(c); a < 0 || a > 1 {
		t.Errorf("ak = %v", a)
	}
	// ek > 1 when clusters are coherent (ISIM > ESIM).
	if e := EK.Value(c); e <= 1 {
		t.Errorf("ek = %v, want > 1 on separable data", e)
	}
}

func TestIndexMaximizeFlags(t *testing.T) {
	for _, ix := range Indexes {
		want := ix != BK
		if ix.Maximize() != want {
			t.Errorf("Maximize(%s) = %v", ix, ix.Maximize())
		}
	}
}

func TestPredictKRecoversTrueK(t *testing.T) {
	// ck = avg |S_i|(ISIM_i − ESIM_i) peaks at the true k on clean
	// geometry: merging true clusters dilutes the size-weighted ISIM
	// sum, over-splitting shrinks it by 1/k.
	for trueK := 2; trueK <= 4; trueK++ {
		vecs, _ := blobs(trueK, 12, int64(trueK)*11)
		k, c, err := PredictK(Direct, CK, vecs, KMin, KMax, 1)
		if err != nil {
			t.Fatal(err)
		}
		if k != trueK {
			t.Errorf("PredictK(ck, direct) = %d, want %d", k, trueK)
		}
		if c == nil || c.K != k {
			t.Error("clustering/k mismatch")
		}
	}
}

func TestPredictKFKConservative(t *testing.T) {
	// fk divides by log10(k), a structural prior toward small k: on a
	// true k=2 problem it must say 2, never over-split.
	vecs, _ := blobs(2, 15, 99)
	k, _, err := PredictK(Direct, FK, vecs, KMin, KMax, 1)
	if err != nil {
		t.Fatal(err)
	}
	if k != 2 {
		t.Errorf("PredictK(fk) = %d on true k=2 data", k)
	}
}

// TestRunOneClusterMatchesAlgorithms: at k = 1 Run returns the
// one-cluster partition without running an algorithm. It must equal,
// bit for bit, what each algorithm's own function returns at k = 1 on
// the same unit vectors, and an unknown algorithm is still refused.
func TestRunOneClusterMatchesAlgorithms(t *testing.T) {
	own := map[Algorithm]func(unit []sparse.Vector, seed int64) *Clustering{
		Direct: func(u []sparse.Vector, seed int64) *Clustering { return kmeans(u, 1, seed, 30) },
		RB:     func(u []sparse.Vector, seed int64) *Clustering { return repeatedBisection(u, 1, seed, false) },
		RBR:    func(u []sparse.Vector, seed int64) *Clustering { return repeatedBisection(u, 1, seed, true) },
		Agglo:  func(u []sparse.Vector, _ int64) *Clustering { return agglomerative(u, 1) },
		Graph:  func(u []sparse.Vector, _ int64) *Clustering { return graphCluster(u, similarityGraph(u), 1) },
	}
	for _, n := range []int{1, 2, 7, 40} {
		for seed := int64(1); seed <= 4; seed++ {
			vecs := randVecs(rand.New(rand.NewSource(seed*100+int64(n))), n)
			for _, alg := range Algorithms {
				got, err := Run(alg, vecs, 1, seed)
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: %v", alg, n, seed, err)
				}
				want := own[alg](normalizeAll(vecs), seed)
				if diff := sameClustering(got, want); diff != "" {
					t.Fatalf("%s n=%d seed=%d: %s", alg, n, seed, diff)
				}
			}
		}
	}
	vecs := randVecs(rand.New(rand.NewSource(1)), 3)
	_, err := Run("bogus", vecs, 1, 1)
	if want := `cluster: unknown algorithm "bogus"`; err == nil || err.Error() != want {
		t.Errorf("Run(bogus, k=1) err = %v, want %s", err, want)
	}
}

// sameBits reports whether two vectors hold the same features with
// bit-identical weights.
func sameBits(a, b sparse.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for f, x := range a {
		y, ok := b[f]
		if !ok || math.Float64bits(x) != math.Float64bits(y) {
			return false
		}
	}
	return true
}

// sameClustering returns "" when two clusterings are equal bit for
// bit — K, labels, sizes, unit vectors, composites and total — and
// otherwise what differs.
func sameClustering(a, b *Clustering) string {
	if a.K != b.K || !slices.Equal(a.Assign, b.Assign) || !slices.Equal(a.sizes, b.sizes) {
		return fmt.Sprintf("partition (%d, %v, %v), want (%d, %v, %v)", a.K, a.Assign, a.sizes, b.K, b.Assign, b.sizes)
	}
	if !slices.EqualFunc(a.vecs, b.vecs, sameBits) {
		return "unit vectors differ"
	}
	if !slices.EqualFunc(a.comp, b.comp, sameBits) {
		return "composites differ"
	}
	if !sameBits(a.total, b.total) {
		return "totals differ"
	}
	return ""
}

// TestSweepMatchesRun: for every algorithm, each clustering Sweep
// returns equals Run at its k bit for bit, and Sweep returns exactly
// the k values, in ascending order, at which Run honours k.
func TestSweepMatchesRun(t *testing.T) {
	const kmin, kmax = 1, 6
	for _, n := range []int{1, 2, 5, 9, 30} {
		for seed := int64(1); seed <= 6; seed++ {
			vecs := randVecs(rand.New(rand.NewSource(seed*10+int64(n))), n)
			for _, alg := range Algorithms {
				swept, err := Sweep(alg, vecs, kmin, kmax, seed)
				if err != nil {
					t.Fatal(err)
				}
				var want []*Clustering
				for k := kmin; k <= kmax && k <= n; k++ {
					c, err := Run(alg, vecs, k, seed)
					if err != nil {
						t.Fatal(err)
					}
					if c.K == k {
						want = append(want, c)
					}
				}
				if len(swept) != len(want) {
					t.Fatalf("%s n=%d seed=%d: Sweep returned %d clusterings, Run honours %d k", alg, n, seed, len(swept), len(want))
				}
				for i, c := range swept {
					if diff := sameClustering(c, want[i]); diff != "" {
						t.Fatalf("%s n=%d seed=%d k=%d: %s", alg, n, seed, want[i].K, diff)
					}
				}
			}
		}
	}
	vecs := randVecs(rand.New(rand.NewSource(1)), 3)
	if _, err := Sweep("bogus", vecs, 1, 2, 1); err == nil {
		t.Error("Sweep accepted an unknown algorithm")
	}
	if _, err := Sweep(Direct, vecs, 3, 2, 1); err == nil {
		t.Error("Sweep accepted an inverted range")
	}
}

// TestBestFirstInDirection: Best takes the highest value, or for BK the
// lowest, and the first clustering among equal values.
func TestBestFirstInDirection(t *testing.T) {
	vecs, _ := blobs(3, 8, 14)
	cs, err := Sweep(Direct, vecs, KMin, KMax, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range Indexes {
		best := ix.Best(cs)
		for _, c := range cs {
			v, b := ix.Value(c), ix.Value(best)
			if (ix.Maximize() && v > b) || (!ix.Maximize() && v < b) || (v == b && c.K < best.K) {
				t.Errorf("%s: k=%d (%v) beats the chosen k=%d (%v)", ix, c.K, v, best.K, b)
			}
		}
	}
	twice := []*Clustering{cs[0], cs[0]}
	if AK.Best(twice) != twice[0] {
		t.Error("Best did not keep the first of two equal clusterings")
	}
	if AK.Best(nil) != nil {
		t.Error("Best of no clusterings is not nil")
	}
}

func TestPredictKErrors(t *testing.T) {
	vecs, _ := blobs(2, 3, 9)
	if _, _, err := PredictK(Direct, FK, vecs, 5, 2, 1); err == nil {
		t.Error("inverted range accepted")
	}
	if _, _, err := PredictK(Direct, FK, vecs[:1], 2, 5, 1); err == nil {
		t.Error("infeasible k accepted")
	}
	if _, _, err := PredictK(Direct, "bogus", vecs, 2, 5, 1); err == nil {
		t.Error("unknown index accepted")
	}
	if _, _, err := PredictK(Direct, Silhouette, vecs, 2, 5, 1); err != nil {
		t.Errorf("silhouette refused: %v", err)
	}
}

func TestTopFeatures(t *testing.T) {
	vecs, labels := blobs(2, 10, 10)
	c, err := Run(Direct, vecs, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = labels
	top := c.Centroid(0).Top(3)
	if len(top) != 3 {
		t.Fatalf("Centroid(0).Top(3) = %v", top)
	}
	if top[0].Weight < top[1].Weight {
		t.Error("Centroid(0).Top(3) not sorted")
	}
}

func TestClusteringDeterministic(t *testing.T) {
	vecs, _ := blobs(3, 10, 12)
	for _, alg := range Algorithms {
		a, err := Run(alg, vecs, 3, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(alg, vecs, 3, 42)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Assign {
			if a.Assign[i] != b.Assign[i] {
				t.Errorf("%s: same seed, different assignment", alg)
				break
			}
		}
	}
}

func TestPartitionCoversAllObjects(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 10; trial++ {
		n := 8 + r.Intn(20)
		vecs := make([]sparse.Vector, n)
		for i := range vecs {
			v := sparse.New(4)
			for f := 0; f < 4; f++ {
				v[featName(r.Intn(5), f)] = r.Float64()
			}
			vecs[i] = v
		}
		k := 2 + r.Intn(3)
		for _, alg := range Algorithms {
			c, err := Run(alg, vecs, k, int64(trial))
			if err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("%s trial %d: %v", alg, trial, err)
			}
			total := 0
			for i := 0; i < c.K; i++ {
				total += c.Size(i)
			}
			if total != n {
				t.Fatalf("%s: sizes sum %d != %d", alg, total, n)
			}
		}
	}
}

func TestAggloExactKAndI2(t *testing.T) {
	vecs, _ := blobs(4, 5, 20)
	c, err := Run(Agglo, vecs, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.K != 4 {
		t.Errorf("agglo K = %d", c.K)
	}
	if c.I2() <= 0 {
		t.Error("I2 <= 0")
	}
}

func TestRBRAtLeastAsGoodAsRB(t *testing.T) {
	// Refinement never decreases the I2 criterion on these blobs.
	vecs, _ := blobs(3, 12, 21)
	rb, err := Run(RB, vecs, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	rbr, err := Run(RBR, vecs, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rbr.I2() < rb.I2()-1e-9 {
		t.Errorf("rbr I2 %.4f < rb I2 %.4f", rbr.I2(), rb.I2())
	}
}
