// Package lint implements biolint — a suite of repo-specific static
// analyzers that mechanically enforce the invariants this codebase
// establishes by convention:
//
//   - nondeterminism: pipeline packages must not read ambient state
//     (global math/rand, wall clock, environment), emit map-ordered
//     output or sum floats in map order, because the paper's results
//     are reproduced by byte-identical reports for a fixed seed.
//   - context-background: internal packages must thread their caller's
//     context.Context instead of minting context.Background(); the
//     documented convenience wrappers are annotated, not exempted.
//   - obs-nilcheck: exported pointer-receiver methods in internal/obs
//     must nil-check the receiver before dereferencing it — the whole
//     instrumentation API contracts that a nil handle is a no-op.
//   - mutex-return: a return between a bare mu.Lock() and mu.Unlock()
//     with no defer in force leaks the lock.
//   - handler-lock: the HTTP server package serves from immutable
//     state.Store snapshots and must stay lock-free; any sync
//     Lock/RLock acquisition there reintroduces reader/writer
//     blocking.
//   - fsync-before-rename: in internal/storage, a function calling
//     os.Rename must fsync first — the atomic-publish idiom is only
//     crash-safe when the renamed bytes are already on disk.
//   - snapshot-mutation: a corpus/ontology reached through a
//     state.Snapshot is shared with every concurrent reader and must
//     be Clone()d before any write (interprocedural, one-to-two call
//     levels within a package).
//   - goroutine-discipline: every go statement in internal/ needs a
//     join (WaitGroup/channel receive) or a ctx.Done() bound in the
//     launched function, else the goroutine leaks.
//   - error-envelope: internal/server errors flow through the
//     writeError mapper — no http.Error, bare 5xx WriteHeader or naked
//     ResponseWriter.Write — and state.ErrUnavailable maps to 503.
//   - metric-name: obs Counter/Gauge/Histogram registrations use
//     compile-time constant names matching the bioenrich_* grammar.
//
// The suite is built on stdlib go/ast + go/parser + go/types only (no
// golang.org/x/tools dependency, mirroring the repo-wide stdlib-only
// constraint). cmd/biolint is the driver; findings print in vet's
// file:line:col format and any finding makes the driver exit non-zero.
//
// # Escape hatch
//
// A finding can be suppressed — with a recorded reason — by a
// directive comment on the offending line or the line directly above:
//
//	//biolint:allow <rule> <reason...>
//
// where <rule> is an analyzer name and <reason> is mandatory free
// text. Malformed or unknown-rule directives are themselves findings,
// so a typo cannot silently disable enforcement, and a directive that
// no longer suppresses anything is flagged under unused-suppression —
// stale armor is deleted, not accumulated.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"sync"
)

// Finding is one diagnostic, positioned and attributed to the
// analyzer (rule) that produced it.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the finding in vet format:
// file:line:col: message [rule].
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Rule)
}

// Analyzer is one named rule over a type-checked package.
type Analyzer struct {
	Name string // rule name, referenced by //biolint:allow directives
	Doc  string // one-line description of the invariant enforced
	Run  func(*Pass)
}

// Pass is one (analyzer, package) execution; analyzers report through
// it.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	findings []Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Pos:     p.Pkg.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full biolint suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Nondeterminism, ContextBackground, ObsNilCheck, MutexReturn, HandlerLock, FsyncRename,
		SnapshotMutation, GoroutineDiscipline, ErrEnvelope, MetricName,
	}
}

// Run applies every analyzer to every package, resolves
// //biolint:allow suppressions, and returns the surviving findings
// sorted by (file, line, column, rule, message) so output is stable
// across runs and machines.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	return RunWorkers(pkgs, analyzers, 1)
}

// RunWorkers is Run with a bounded worker pool: packages are analyzed
// independently (one goroutine per pool slot), results merged and
// sorted. Findings are identical to the serial run — each package's
// analysis is self-contained, and the final sort imposes the global
// order — so workers only changes wall-clock, never output.
func RunWorkers(pkgs []*Package, analyzers []*Analyzer, workers int) []Finding {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	perPkg := make([][]Finding, len(pkgs))
	if workers < 1 {
		workers = 1
	}
	if workers > len(pkgs) {
		workers = len(pkgs)
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				perPkg[i] = analyzePackage(pkgs[i], analyzers, known)
			}
		}()
	}
	for i := range pkgs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	var out []Finding
	for _, fs := range perPkg {
		out = append(out, fs...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return out
}

// analyzePackage runs the analyzers over one package, applying
// suppressions and appending directive hygiene findings: malformed
// directives (from collectDirectives) and unused suppressions — a
// //biolint:allow for a rule in this run that suppressed nothing is
// dead armor and must be deleted before it hides a future regression.
func analyzePackage(pkg *Package, analyzers []*Analyzer, known map[string]bool) []Finding {
	dirs, out := collectDirectives(pkg, known)
	for _, a := range analyzers {
		p := &Pass{Analyzer: a, Pkg: pkg}
		a.Run(p)
		for _, f := range p.findings {
			if dirs.allows(f) {
				continue
			}
			out = append(out, f)
		}
	}
	for _, file := range sortedKeys(dirs) {
		for _, line := range sortedIntKeys(dirs[file]) {
			for _, d := range dirs[file][line] {
				if !d.used {
					out = append(out, Finding{
						Pos:     d.pos,
						Rule:    "unused-suppression",
						Message: fmt.Sprintf("%s %s suppresses nothing: delete the stale directive", allowPrefix, d.rule),
					})
				}
			}
		}
	}
	return out
}

func sortedKeys(m directives) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedIntKeys(m map[int][]*directive) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// allowPrefix is the directive marker. Per Go directive convention it
// must start the comment with no space after //.
const allowPrefix = "//biolint:allow"

// directive is one parsed //biolint:allow, tracking whether it
// actually suppressed a finding this run.
type directive struct {
	rule string
	pos  token.Position
	used bool
}

// directives maps file → line → the directives on that line.
type directives map[string]map[int][]*directive

// allows reports whether f is suppressed by a directive on its line
// or the line directly above, marking the suppressing directive used.
func (d directives) allows(f Finding) bool {
	lines := d[f.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, l := range [2]int{f.Pos.Line, f.Pos.Line - 1} {
		for _, dir := range lines[l] {
			if dir.rule == f.Rule {
				dir.used = true
				return true
			}
		}
	}
	return false
}

// collectDirectives scans every comment in the package for
// //biolint:allow directives. Malformed directives (missing rule or
// reason, a space before biolint:, or an unknown rule name) become
// findings under the "directive" pseudo-rule — a typo must fail the
// build, not silently stop suppressing.
func collectDirectives(pkg *Package, known map[string]bool) (directives, []Finding) {
	dirs := make(directives)
	var bad []Finding
	report := func(pos token.Pos, format string, args ...any) {
		bad = append(bad, Finding{
			Pos:     pkg.Fset.Position(pos),
			Rule:    "directive",
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := c.Text
				switch {
				case strings.HasPrefix(text, allowPrefix):
					// handled below
				case strings.HasPrefix(strings.TrimLeft(strings.TrimPrefix(text, "//"), " \t"), "biolint:"):
					// `// biolint:allow ...` parses as prose, not as a
					// directive, and would be silently inert.
					report(c.Pos(), "malformed biolint directive: must start with %q (no space)", allowPrefix)
					continue
				default:
					continue
				}
				rest := strings.TrimPrefix(text, allowPrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //biolint:allowance — not ours
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					report(c.Pos(), "malformed %s directive: want %q", allowPrefix, allowPrefix+" <rule> <reason>")
					continue
				}
				rule := fields[0]
				if !known[rule] {
					report(c.Pos(), "%s names unknown rule %q", allowPrefix, rule)
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if dirs[pos.Filename] == nil {
					dirs[pos.Filename] = make(map[int][]*directive)
				}
				dirs[pos.Filename][pos.Line] = append(dirs[pos.Filename][pos.Line], &directive{rule: rule, pos: pos})
			}
		}
	}
	return dirs, bad
}

// forEachFunc visits every function declaration with a body.
func forEachFunc(pkg *Package, fn func(*ast.FuncDecl)) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}
