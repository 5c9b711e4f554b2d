// Package core is a biolint fixture standing in for a determinism-
// critical pipeline package (matched by its final path segment).
package core

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"time"
)

// GlobalRand draws from the process-global source.
func GlobalRand() int {
	return rand.Intn(10) // want "call to global rand.Intn"
}

// GlobalShuffle mutates through the global source.
func GlobalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want "call to global rand.Shuffle"
}

// SeededRand builds an explicit generator — the sanctioned pattern.
func SeededRand(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

// WallClock reads ambient time.
func WallClock() time.Time {
	return time.Now() // want "call to time.Now"
}

// Elapsed reads ambient time through Since.
func Elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want "call to time.Since"
}

// Env reads the process environment.
func Env() string {
	return os.Getenv("BIOENRICH_MODE") // want "call to os.Getenv"
}

// KeysUnsorted leaks map iteration order into a slice.
func KeysUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m { // want "map iteration order"
		keys = append(keys, k)
	}
	return keys
}

// KeysSorted canonicalizes after accumulating.
func KeysSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// DumpUnsorted streams map entries in iteration order.
func DumpUnsorted(w io.Writer, m map[string]int) {
	for k, v := range m { // want "map iteration order"
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

// detSum is a factored-out canonical reduction: it sorts before
// summing, and the analyzer looks one call deep to recognize it.
func detSum(xs []float64) float64 {
	sort.Float64s(xs)
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// WeightsCanonical accumulates map values, then reduces through the
// sorting helper — not flagged.
func WeightsCanonical(m map[string]float64) float64 {
	terms := make([]float64, 0, len(m))
	for _, w := range m {
		terms = append(terms, w)
	}
	return detSum(terms)
}

// SumValues accumulates commutatively — order-insensitive, not
// flagged.
func SumValues(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Invert writes into another map — order-insensitive, not flagged.
func Invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// TotalWeight sums floats in map order: float addition is not
// associative, so the last bits change from run to run, and sorting
// the keys afterwards does not undo that.
func TotalWeight(m map[string]float64) ([]string, float64) {
	var keys []string
	var total float64
	for k, w := range m {
		keys = append(keys, k)
		total -= w // want "float sum in map iteration order"
	}
	sort.Strings(keys)
	return keys, -total
}

type stats struct{ mass float64 }

// FieldSum accumulates into a float field in map order.
func FieldSum(m map[string]float64) stats {
	var s stats
	for _, w := range m {
		s.mass += w // want "float sum in map iteration order"
	}
	return s
}

// PerKeyTotals adds into map elements and a per-iteration local, each
// summed in slice order — not flagged.
func PerKeyTotals(m map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, ws := range m {
		var sub float64
		for _, w := range ws {
			sub += w
			out[k] += w
		}
		out[k] -= sub / 2
	}
	return out
}
