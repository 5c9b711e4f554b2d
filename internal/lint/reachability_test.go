package lint_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"bioenrich/internal/lint"
)

// reachabilityKeeps are the only functions no program reaches that may
// stay: each is how a test checks live code. Key format is funcKey's.
var reachabilityKeeps = map[string]string{
	"bioenrich/internal/cluster.Clustering.I2":       "TestAggloExactKAndI2 and TestRBRAtLeastAsGoodAsRB compare the clustering algorithms by the I2 criterion they optimise",
	"bioenrich/internal/cluster.Clustering.Validate": "the cluster tests check every algorithm's output is a well-formed partition",
	"bioenrich/internal/corpus.Corpus.Vocabulary":    "the corpus round-trip, rebuild and JSONL tests compare index sizes",
	"bioenrich/internal/lint.Load":                   "the analyzer golden tests and this scan load packages serially",
	"bioenrich/internal/lint.Run":                    "the analyzer tests run one analyzer serially",
	"bioenrich/internal/ml.DecisionTree.Depth":       "the decision-tree tests check the depth cap",
	"bioenrich/internal/polysemy.CrossValidate":      "BenchmarkPolysemyDetection and TestCrossValidateHighF1 score step II by cross-validation",
	"bioenrich/internal/termex.Extractor.Freq":       "TestScanFindsCandidates checks candidate frequencies",
}

// TestEveryFunctionReachable fails when a function or method in the
// module or in perfbench/ is reached from no program. The roots are
// every main in a main package, every init and every package-level
// variable initializer; an edge is any reference to a function or
// method, call or value, inside a reached function's declaration. A
// method also counts as reached when its name is a method of an
// interface type declared in a loaded package or a standard-library
// package one imports, because a call through that interface is not
// an edge the scan can see. Test files are not loaded, so a function
// only tests call is unreachable unless reachabilityKeeps names it.
func TestEveryFunctionReachable(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	// perfbench/ requires the module through a replace directive, so
	// one load from there lists both.
	pkgs, err := lint.Load(filepath.Join(root, "perfbench"), []string{"./...", "bioenrich/..."})
	if err != nil {
		t.Fatal(err)
	}
	unreachable := unreachableFuncs(pkgs)
	t.Logf("scanned %d packages in %v", len(pkgs), time.Since(start).Round(time.Millisecond))

	found := make(map[string]bool, len(unreachable))
	for _, u := range unreachable {
		found[u.key] = true
		if _, keep := reachabilityKeeps[u.key]; !keep {
			t.Errorf("%s: %s is reached from no main, init or package-level initializer (%d lines): delete it, or add it to reachabilityKeeps with the reason a test needs it", u.pos, u.key, u.lines)
		}
	}
	for key, reason := range reachabilityKeeps {
		if !found[key] {
			t.Errorf("reachabilityKeeps[%q] is stale: a program reaches it now, or it is gone", key)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("reachabilityKeeps[%q] has no recorded reason", key)
		}
	}
}

type unreachableFunc struct {
	key   string
	pos   token.Position
	lines int
}

// funcDecl is one declaration of a function key, with the package
// whose type information resolves the identifiers in its body.
type funcDecl struct {
	pkg  *lint.Package
	decl *ast.FuncDecl
}

// unreachableFuncs returns every declared function no root reaches,
// sorted by position.
func unreachableFuncs(pkgs []*lint.Package) []unreachableFunc {
	ifaceMethods := interfaceMethodNames(pkgs)
	decls := make(map[string][]funcDecl)
	var work []string
	reached := make(map[string]bool)
	reach := func(key string) {
		if !reached[key] {
			reached[key] = true
			work = append(work, key)
		}
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					key := funcKey(pkg.Info.Defs[d.Name].(*types.Func))
					decls[key] = append(decls[key], funcDecl{pkg, d})
					switch {
					case d.Recv == nil && d.Name.Name == "init",
						d.Recv == nil && d.Name.Name == "main" && pkg.Types.Name() == "main",
						d.Recv != nil && ifaceMethods[d.Name.Name]:
						reach(key)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						for _, key := range referencedFuncs(pkg, d) {
							reach(key)
						}
					}
				}
			}
		}
	}
	for len(work) > 0 {
		key := work[len(work)-1]
		work = work[:len(work)-1]
		for _, fd := range decls[key] {
			for _, callee := range referencedFuncs(fd.pkg, fd.decl) {
				reach(callee)
			}
		}
	}

	var out []unreachableFunc
	for key, ds := range decls {
		if reached[key] {
			continue
		}
		for _, fd := range ds {
			fset := fd.pkg.Fset
			out = append(out, unreachableFunc{
				key:   key,
				pos:   fset.Position(fd.decl.Pos()),
				lines: fset.Position(fd.decl.End()).Line - fset.Position(fd.decl.Pos()).Line + 1,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return out
}

// funcKey names a function as "pkgpath.Name" and a method as
// "pkgpath.Type.Name", so a declaration and a reference from another
// module's load agree.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return fn.Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
		}
		// A method of an unnamed interface: no declaration has its key.
		return fn.Pkg().Path() + ".interface." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// referencedFuncs returns the key of every function or method n
// refers to.
func referencedFuncs(pkg *lint.Package, n ast.Node) []string {
	var keys []string
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := pkg.Info.Uses[id].(*types.Func); ok && fn.Pkg() != nil {
				keys = append(keys, funcKey(fn))
			}
		}
		return true
	})
	return keys
}

// interfaceMethodNames collects the method names of every interface
// type in the loaded packages (declared or written in place), of every
// interface declared in a standard-library package they import, and
// of error.
func interfaceMethodNames(pkgs []*lint.Package) map[string]bool {
	names := map[string]bool{"Error": true}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	addScope := func(p *types.Package) {
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	for _, pkg := range pkgs {
		addScope(pkg.Types)
		for _, imp := range pkg.Types.Imports() {
			addScope(imp)
		}
		for _, tv := range pkg.Info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	return names
}
