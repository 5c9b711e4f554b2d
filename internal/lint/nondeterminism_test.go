package lint_test

import (
	"testing"

	"bioenrich/internal/lint"
)

// TestNondeterminismGolden covers the four sub-rules — global
// math/rand, ambient clock/env reads, unsorted map-range output, float
// sums in map order — and the pipeline-package scoping (internal/util
// tolerates the clock but not the global rand source).
func TestNondeterminismGolden(t *testing.T) {
	pkgs := loadFixture(t, "./internal/core", "./internal/util")
	checkWant(t, pkgs, lint.Run(pkgs, []*lint.Analyzer{lint.Nondeterminism}))
}
