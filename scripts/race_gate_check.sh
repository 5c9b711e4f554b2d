#!/usr/bin/env bash
# race_gate_check.sh — proves the race gate's package list is complete.
#
# The Makefile's `race` target enumerates the internal packages that
# run under -race. A new internal package added to the module tree is
# invisible to that hand-maintained list, so this script asserts:
#
#   raced ∪ exempt == go list ./internal/...   (exactly, no overlap)
#
# CI's race step runs `make race`, so the Makefile is the only raced
# list there is.
#
# Every exemption below records why the package has no concurrency of
# its own; moving goroutines into one of them means promoting it to
# the raced list (and deleting its exemption) or this script fails.
set -euo pipefail
cd "$(dirname "$0")/.."

# Packages deliberately outside the race gate. Format: path<TAB>reason.
exempt() {
	cat <<'EOF'
bioenrich/internal/cluster	pure seeded clustering math, single goroutine
bioenrich/internal/eval	pure metric arithmetic over finished results
bioenrich/internal/experiments	sequential experiment harness, no goroutines
bioenrich/internal/graph	pure graph algorithms over immutable inputs
bioenrich/internal/ml	pure seeded models, single goroutine
bioenrich/internal/ontology	pure data structure; concurrency handled by state snapshots
bioenrich/internal/polysemy	pure pipeline step, single goroutine
bioenrich/internal/postag	pure rule-based tagger
bioenrich/internal/relext	pure pattern extraction
bioenrich/internal/sparse	pure vector arithmetic
bioenrich/internal/synth	seeded corpus synthesizer, single goroutine
bioenrich/internal/textutil	pure string utilities
bioenrich/internal/storage/fsio	sequential file primitives, no goroutines
bioenrich/internal/buildinfo	pure build-metadata read (debug.ReadBuildInfo), no goroutines
bioenrich/internal/loadtest	seeded traffic generator perfbench imports, single goroutine
EOF
}

# The raced list, read straight from the Makefile's race recipe.
makefile_raced() {
	grep -E '^\s*\$\(GO\) test -race ' Makefile |
		grep -oE '\./internal/[a-z0-9/]+' |
		sed 's|^\./|bioenrich/|' | sort -u
}

fail=0

raced="$(makefile_raced)"
all="$(go list ./internal/... | sort -u)"
exempt_paths="$(exempt | cut -f1 | sort -u)"

covered="$(printf '%s\n%s\n' "$raced" "$exempt_paths" | sort -u)"

# Completeness: every internal package is raced or exempted.
missing="$(comm -23 <(printf '%s\n' "$all") <(printf '%s\n' "$covered"))"
if [ -n "$missing" ]; then
	echo "internal packages neither raced nor exempted — add to the" >&2
	echo "Makefile race list or to scripts/race_gate_check.sh with a reason:" >&2
	printf '  %s\n' $missing >&2
	fail=1
fi

# No stale entries: raced/exempted packages must exist.
stale="$(comm -13 <(printf '%s\n' "$all") <(printf '%s\n' "$covered"))"
if [ -n "$stale" ]; then
	echo "stale race-gate entries (package no longer exists):" >&2
	printf '  %s\n' $stale >&2
	fail=1
fi

# Disjointness: a package cannot be both raced and exempt.
both="$(comm -12 <(printf '%s\n' "$raced") <(printf '%s\n' "$exempt_paths"))"
if [ -n "$both" ]; then
	echo "packages both raced and exempted — delete the exemption:" >&2
	printf '  %s\n' $both >&2
	fail=1
fi

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "race gate covers ./internal/... ($(printf '%s\n' "$raced" | wc -l | tr -d ' ') raced, $(printf '%s\n' "$exempt_paths" | wc -l | tr -d ' ') exempt)"
