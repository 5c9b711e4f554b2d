package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GoroutineDiscipline guards against leaked goroutines in internal/
// packages: every `go` statement must either be joined by its launch
// site or bound to a cancellable context in the launched function.
// The repo's two sanctioned shapes are the WaitGroup worker pool
// (wg.Add before launch, defer wg.Done() in the body, wg.Wait() at the
// end) and the context-bounded loop (select { case <-ctx.Done(): ... }
// in the body). A goroutine
// with neither runs unsupervised: nothing stops it on shutdown and
// nothing observes its completion, which is exactly how the enricher's
// early cancellation bugs were born.
//
// Accepted evidence, in the launched function (a func literal or a
// same-package function/method resolved one level deep):
//
//   - a sync.WaitGroup Done() call (usually deferred);
//   - a select with a case receiving from a Done() call (ctx.Done());
//   - a send on a result channel (the completion-signal idiom, paired
//     with the launch site's receive).
//
// or, at the launch site after the `go` statement:
//
//   - a sync.WaitGroup Wait() call;
//   - a channel receive or a range over a channel (collecting results
//     joins the producer).
var GoroutineDiscipline = &Analyzer{
	Name: "goroutine-discipline",
	Doc:  "every go statement needs a join (WaitGroup/channel) or a ctx.Done() bound in the launched function",
	Run:  runGoroutineDiscipline,
}

func runGoroutineDiscipline(p *Pass) {
	if !strings.Contains(p.Pkg.PkgPath, "internal/") {
		return
	}
	bodies := packageFuncBodies(p.Pkg)
	forEachFunc(p.Pkg, func(fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if launchedBodyJoins(p.Pkg, gs, bodies) || launchSiteJoins(p.Pkg, fd.Body, gs) {
				return true
			}
			p.Reportf(gs.Pos(), "goroutine leak: no join (WaitGroup/channel receive) at the launch site and no Done()/ctx.Done() bound in the launched function")
			return true
		})
	})
}

// launchedBodyJoins resolves the goroutine's function body — a literal,
// or a same-package declaration one level deep — and looks for join or
// cancellation evidence inside it.
func launchedBodyJoins(pkg *Package, gs *ast.GoStmt, bodies map[types.Object]*ast.FuncDecl) bool {
	var body *ast.BlockStmt
	switch fun := gs.Call.Fun.(type) {
	case *ast.FuncLit:
		body = fun.Body
	case *ast.Ident:
		if fd := bodies[pkg.Info.Uses[fun]]; fd != nil {
			body = fd.Body
		}
	case *ast.SelectorExpr:
		if fd := bodies[pkg.Info.Uses[fun.Sel]]; fd != nil {
			body = fd.Body
		}
	}
	if body == nil {
		return false
	}
	joined := false
	ast.Inspect(body, func(n ast.Node) bool {
		if joined {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			// sync.WaitGroup Done() — the worker-pool join half.
			if isSyncCall(pkg, n, "Done") {
				joined = true
				return false
			}
		case *ast.SelectStmt:
			// select { case <-ctx.Done(): ... } — context-bounded loop.
			for _, clause := range n.Body.List {
				cc, ok := clause.(*ast.CommClause)
				if !ok || cc.Comm == nil {
					continue
				}
				if commReceivesDone(cc.Comm) {
					joined = true
					return false
				}
			}
		case *ast.SendStmt:
			// Completion signal: the launch site's receive is the join.
			joined = true
			return false
		}
		return true
	})
	return joined
}

// commReceivesDone reports whether a select comm clause receives from
// a Done() call (`case <-ctx.Done():` or `case _, ok := <-ctx.Done():`).
func commReceivesDone(comm ast.Stmt) bool {
	var recv ast.Expr
	switch s := comm.(type) {
	case *ast.ExprStmt:
		recv = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			recv = s.Rhs[0]
		}
	}
	ue, ok := recv.(*ast.UnaryExpr)
	if !ok || ue.Op != token.ARROW {
		return false
	}
	call, ok := ue.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Done"
}

// launchSiteJoins looks for join evidence in the launching function
// after the go statement: a sync Wait() call, a channel receive, or a
// range over a channel.
func launchSiteJoins(pkg *Package, body *ast.BlockStmt, gs *ast.GoStmt) bool {
	joined := false
	ast.Inspect(body, func(n ast.Node) bool {
		if joined {
			return false
		}
		if g, ok := n.(*ast.GoStmt); ok && g == gs {
			// A receive inside the launched body is the goroutine's own
			// blocking, not the launch site joining it.
			return false
		}
		if n == nil || n.Pos() <= gs.Pos() {
			return true
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isSyncCall(pkg, n, "Wait") {
				joined = true
				return false
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				joined = true
				return false
			}
		case *ast.RangeStmt:
			if tv, ok := pkg.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					joined = true
					return false
				}
			}
		}
		return true
	})
	return joined
}

// isSyncCall reports whether call is a method call named name whose
// method comes from package sync (WaitGroup.Done, WaitGroup.Wait).
func isSyncCall(pkg *Package, call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	selection, ok := pkg.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return false
	}
	fn, ok := selection.Obj().(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync"
}
