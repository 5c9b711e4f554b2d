package loadtest

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"
)

// TestParseMixRoundTrip: a spec's op order is presentation only.
// Specs listing the same weights in any order sample the same op
// sequence, and an op the spec omits is never sampled.
func TestParseMixRoundTrip(t *testing.T) {
	picks := func(spec string) string {
		t.Helper()
		m, err := ParseMix(spec)
		if err != nil {
			t.Fatal(err)
		}
		g := NewGen(42, 100, 0)
		var b strings.Builder
		for i := 0; i < 200; i++ {
			b.WriteString(string(g.Pick(m)))
			b.WriteByte('|')
		}
		return b.String()
	}
	want := picks("search=50,classify=25,enrich=5")
	for _, spec := range []string{"enrich=5, search=50,classify=25", "classify=25,enrich=5,search=50"} {
		if got := picks(spec); got != want {
			t.Errorf("ParseMix(%q) picks diverge from the canonical order", spec)
		}
	}
	for _, op := range []Op{OpRecommend, OpIngest} {
		if strings.Contains(want, string(op)+"|") {
			t.Errorf("picked %s, which the spec gives no weight", op)
		}
	}
}

func TestParseMixErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"bogus=10",
		"search=0",
		"search=-5",
		"search=abc",
		"search",
		"search=10,search=20",
	} {
		if _, err := ParseMix(spec); err == nil {
			t.Errorf("ParseMix(%q) succeeded, want error", spec)
		}
	}
}

// TestGenDeterminism: the same (seed, worker) produces the same op
// sequence and payloads; a different worker slot diverges.
func TestGenDeterminism(t *testing.T) {
	mix, err := ParseMix("search=50,classify=25,recommend=10,ingest=10,enrich=5")
	if err != nil {
		t.Fatal(err)
	}
	seq := func(worker int) string {
		g := NewGen(42, 100, worker)
		var b strings.Builder
		for i := 0; i < 50; i++ {
			b.WriteString(string(g.Pick(mix)))
			b.WriteByte('|')
		}
		b.WriteString(g.Query())
		b.WriteString(g.Text(10))
		return b.String()
	}
	if seq(0) != seq(0) {
		t.Error("same seed+worker diverged")
	}
	if seq(0) == seq(1) {
		t.Error("different workers produced identical streams")
	}

	docs := NewGen(42, 100, 3).Documents(2, 5)
	if docs[0].ID != "loadgen-w3-000001" || docs[1].ID != "loadgen-w3-000002" {
		t.Errorf("doc IDs = %q, %q", docs[0].ID, docs[1].ID)
	}
}

// TestTrafficGolden pins the traffic perfbench sends. perfbench builds
// this package from each checkout it measures, so an edit to Gen, Mix
// or synth's word generator would otherwise have two checkouts send
// the server different requests, and TestGenDeterminism would not
// notice: it only checks that one build agrees with itself.
// NewGen(42, 400, 16) is perfbench's seed 1, slot 0 (its corpus seed,
// vocabulary size and seed*16+slot), sampling its read mix with its
// payload sizes.
func TestTrafficGolden(t *testing.T) {
	mix, err := ParseMix("search=60,classify=25,recommend=15")
	if err != nil {
		t.Fatal(err)
	}
	g := NewGen(42, 400, 16)
	var b strings.Builder
	for i := 0; i < 200; i++ {
		op := g.Pick(mix)
		var payload string
		if op == OpSearch {
			payload = g.Query()
		} else {
			payload = g.Text(30)
		}
		b.WriteString(string(op) + "|" + payload + "\n")
	}
	docs, err := json.Marshal(g.Documents(4, 40))
	if err != nil {
		t.Fatal(err)
	}
	b.Write(docs)

	sum := sha256.Sum256([]byte(b.String()))
	const want = "ef9b35358f73ce167946dc3bd7d4b49bb5d746c171d1597a1ce0b0574c08f0e9"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("traffic digest = %s, want %s", got, want)
	}
}
