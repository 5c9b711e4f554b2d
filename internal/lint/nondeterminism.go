package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// pipelineRoots are the report-producing entry points: the packages
// whose exported results become the paper's reproduced numbers
// (Table 1 calibration, polysemy F-measure, P@k linkage) plus the
// state-writers that publish snapshots those numbers are computed
// from. The determinism gate covers these roots and every internal
// package they import — pipelinepackages_test.go derives that closure
// from the module tree with `go list -deps` and fails when a new
// report-reachable package is in neither pipelinePackages nor
// pipelineExempt, so the maps below can no longer rot silently (they
// needed hand-edits in PRs 7 and 8).
var pipelineRoots = []string{
	"core",        // enrichment pipeline orchestrator
	"classify",    // document classification read path
	"recommend",   // concept recommendation read path
	"experiments", // paper-table experiment harness
	"registry",    // multi-ontology snapshot writer
	"batch",       // group-commit snapshot writer
	"loadtest",    // seeded /v1 traffic the repository benchmark sends
}

// pipelinePackages names the packages under the determinism gate.
// Everything these packages compute must be a pure function of
// (corpus, ontology, the pipeline's fixed seed): no ambient
// randomness, no wall clock, no environment, no map-order-dependent
// output.
var pipelinePackages = map[string]bool{
	"termex":      true,
	"polysemy":    true,
	"senseind":    true,
	"linkage":     true,
	"core":        true,
	"synth":       true,
	"cluster":     true,
	"ml":          true,
	"sparse":      true,
	"graph":       true,
	"classify":    true,
	"recommend":   true,
	"registry":    true,
	"batch":       true,
	"corpus":      true,
	"ontology":    true,
	"state":       true,
	"storage":     true,
	"eval":        true,
	"experiments": true,
	"postag":      true,
	"relext":      true,
	"textutil":    true,
	"loadtest":    true,
}

// pipelineExempt names report-reachable internal packages that are
// deliberately outside the determinism gate, each with the recorded
// reason. An entry here is a documented decision, not an oversight:
// the derivation test accepts a package only if it appears in exactly
// one of pipelinePackages / pipelineExempt.
var pipelineExempt = map[string]string{
	"obs":  "sanctioned wall-clock owner: obs.Now/obs.Since are the instrumentation route",
	"fsio": "durability layer: emits fsync/rename side effects, not report bytes",
}

// isPipelinePackage reports whether path is one of the determinism-
// critical internal packages (matched by final path segment).
func isPipelinePackage(path string) bool {
	if !strings.Contains(path, "internal/") {
		return false
	}
	last := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		last = path[i+1:]
	}
	return pipelinePackages[last]
}

// seededRandConstructors are the math/rand entry points that build an
// explicitly-seeded generator instead of touching the package-global
// source. Everything else on math/rand (Intn, Float64, Shuffle, …) is
// process-global state.
var seededRandConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// wallClockFuncs are the ambient-state reads banned from pipeline
// packages, keyed by package path. Pipeline code that needs timing for
// instrumentation routes through obs.Now/obs.Since — the obs package
// owns the wall clock, keeping the pipeline greppable for clock reads.
var wallClockFuncs = map[string]map[string]bool{
	"time": {"Now": true, "Since": true, "Until": true},
	"os":   {"Getenv": true, "LookupEnv": true, "Environ": true},
}

// Nondeterminism enforces the seeded-determinism invariant that PR 1
// established by hand (derived seeds, order-canonical reductions):
// global math/rand calls anywhere in the module, wall-clock and
// environment reads in pipeline packages, and map-range loops that
// append to slices or write output without a subsequent sort.
var Nondeterminism = &Analyzer{
	Name: "nondeterminism",
	Doc:  "pipeline output must be a pure function of (inputs, fixed seed)",
	Run:  runNondeterminism,
}

func runNondeterminism(p *Pass) {
	pipeline := isPipelinePackage(p.Pkg.PkgPath)
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkgPath, name := calleePkgFunc(p.Pkg.Info, call)
			switch pkgPath {
			case "math/rand", "math/rand/v2":
				if !seededRandConstructors[name] {
					p.Reportf(call.Pos(), "call to global rand.%s: use an explicitly seeded *rand.Rand (rand.New(rand.NewSource(seed)))", name)
				}
			case "time", "os":
				if pipeline && wallClockFuncs[pkgPath][name] {
					hint := "thread it in from the caller"
					if pkgPath == "time" {
						hint = "route instrumentation through obs.Now/obs.Since"
					}
					p.Reportf(call.Pos(), "call to %s.%s in pipeline package %s: %s", pkgPath, name, p.Pkg.PkgPath, hint)
				}
			}
			return true
		})
	}
	if pipeline {
		bodies := packageFuncBodies(p.Pkg)
		forEachFunc(p.Pkg, func(fd *ast.FuncDecl) {
			checkMapRanges(p, fd, bodies)
		})
	}
}

// packageFuncBodies indexes the package's own function declarations
// by their type object, so the map-range check can look one call deep
// for a factored-out canonical reduction (e.g. sparse.detSum).
func packageFuncBodies(pkg *Package) map[types.Object]*ast.FuncDecl {
	bodies := make(map[types.Object]*ast.FuncDecl)
	forEachFunc(pkg, func(fd *ast.FuncDecl) {
		if obj := pkg.Info.Defs[fd.Name]; obj != nil {
			bodies[obj] = fd
		}
	})
	return bodies
}

// calleePkgFunc resolves a call of the form pkg.Func to (package
// path, function name); other call shapes return ("", "").
func calleePkgFunc(info *types.Info, call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

// checkMapRanges flags range-over-map loops whose bodies accumulate
// order-sensitive results (slice appends, stream writes) when no
// sort.* / slices.Sort* call follows in the same function. Map
// iteration order is randomized per run, so unsorted accumulation is
// exactly the nondeterminism the repo's golden report tests exist to
// catch — this analyzer catches it at the offending line instead.
func checkMapRanges(p *Pass, fd *ast.FuncDecl, bodies map[types.Object]*ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := p.Pkg.Info.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		sink := orderSensitiveSink(p.Pkg.Info, rs.Body)
		if sink == token.NoPos {
			return true
		}
		if sortCallAfter(p.Pkg.Info, fd.Body, sink, bodies) {
			return true
		}
		p.Reportf(rs.For, "map iteration order reaches output (append/write in range body) with no subsequent sort in %s", fd.Name.Name)
		return true
	})
}

// orderSensitiveSink returns the position of the first slice append or
// stream write inside a map-range body, or NoPos. Writes into other
// maps and commutative scalar accumulation (sums, counters) are
// order-insensitive and deliberately not flagged.
func orderSensitiveSink(info *types.Info, body *ast.BlockStmt) token.Pos {
	found := token.NoPos
	ast.Inspect(body, func(n ast.Node) bool {
		if found != token.NoPos {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Built-in append.
		if id, ok := call.Fun.(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
				found = call.Pos()
				return false
			}
		}
		// fmt.Print*/Fprint* package calls.
		if pkg, name := calleePkgFunc(info, call); pkg == "fmt" &&
			(strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
			found = call.Pos()
			return false
		}
		// Writer-style method calls (io.Writer, strings.Builder, …).
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Write", "WriteString", "WriteByte", "WriteRune":
				found = call.Pos()
				return false
			}
		}
		return true
	})
	return found
}

// sortCallAfter reports whether any canonicalizing call appears after
// pos within body: a sort.* or slices.Sort* package call, a method
// named Sort*, or a call to a same-package function that itself sorts
// (one level deep — enough to recognize a factored-out canonical
// reduction like sparse.detSum without whole-program analysis).
func sortCallAfter(info *types.Info, body *ast.BlockStmt, pos token.Pos, bodies map[types.Object]*ast.FuncDecl) bool {
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= pos {
			return true
		}
		if isSortCall(info, call) {
			sorted = true
			return false
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if fd := bodies[info.Uses[id]]; fd != nil && containsSortCall(info, fd.Body) {
				sorted = true
				return false
			}
		}
		return true
	})
	return sorted
}

// isSortCall recognizes a direct canonicalizing call.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	if pkg, name := calleePkgFunc(info, call); (pkg == "sort" && name != "") ||
		(pkg == "slices" && strings.HasPrefix(name, "Sort")) {
		return true
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && strings.HasPrefix(sel.Sel.Name, "Sort")
}

// containsSortCall reports whether a function body sorts anywhere.
func containsSortCall(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isSortCall(info, call) {
			found = true
			return false
		}
		return true
	})
	return found
}
