package sparse

import (
	"math"
	"testing"
)

// decodeVectors reads two small vectors from b, three bytes per
// entry: a selector (low bit picks the vector, the next four bits one
// of 16 shared features), then a signed mantissa and a binary exponent
// in [-20, 19]. Weights span twelve orders of magnitude with either
// sign, and stay finite so that every result is a comparable float.
func decodeVectors(b []byte) (Vector, Vector) {
	v, o := New(8), New(8)
	for ; len(b) >= 3; b = b[3:] {
		w := math.Ldexp(float64(int8(b[1])), int(b[2]%40)-20)
		dst := v
		if b[0]&1 == 1 {
			dst = o
		}
		dst[feature(int(b[0]>>1)%16)] = w
	}
	return v, o
}

// FuzzCosines checks Cosines against Cosine bit for bit on decoded
// vector pairs, scoring v against o, o against v, and each against an
// empty vector and itself.
func FuzzCosines(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 20, 1, 1, 20})
	f.Add([]byte{0, 3, 20, 2, 4, 20, 3, 5, 0, 5, 0x80, 39, 7, 7, 7})
	f.Add([]byte{0, 9, 1, 2, 200, 39, 4, 17, 22, 6, 255, 12, 1, 9, 1, 3, 200, 39, 5, 17, 22})
	f.Add([]byte{0, 0, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, o := decodeVectors(data)
		others := []Vector{o, v, {}}
		checkCosines(t, v, others)
		checkCosines(t, o, others)
	})
}

// decodeRows reads a query vector and four rows from b, three bytes
// per entry as decodeVectors reads them, except that the selector's
// value mod 5 picks the vector (0 the query, 1–4 a row) and the rest of
// it one of 16 shared features. A row no entry picks stays empty.
func decodeRows(b []byte) (Vector, []Vector) {
	vs := make([]Vector, 5)
	for i := range vs {
		vs[i] = New(8)
	}
	for ; len(b) >= 3; b = b[3:] {
		w := math.Ldexp(float64(int8(b[1])), int(b[2]%40)-20)
		vs[b[0]%5][feature(int(b[0]/5)%16)] = w
	}
	return vs[0], vs[1:]
}

// FuzzInvertedCosines checks InvertedCosines against Cosine bit for
// bit on decoded rows stored inverted, scoring the query against them
// and each row against all of them.
func FuzzInvertedCosines(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 20, 1, 1, 20})
	f.Add([]byte{0, 3, 20, 1, 4, 20, 2, 5, 0, 5, 0x80, 39, 6, 7, 7, 11, 9, 3, 9, 2, 1})
	f.Add([]byte{0, 9, 1, 1, 200, 39, 2, 17, 22, 3, 255, 12, 4, 9, 1, 5, 200, 39, 6, 17, 22, 7, 1, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, rows := decodeRows(data)
		checkInvertedCosines(t, v, rows)
		for _, row := range rows {
			checkInvertedCosines(t, row, rows)
		}
	})
}
