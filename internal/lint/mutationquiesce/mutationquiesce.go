// Package mutationquiesce enforces the topology-mutation barrier: the
// primitives that rewire a live routing process — installChild, setLink,
// applyInstall, repairStreams, rebuildSlots, redispatchStash — mutate
// state the shard pipelines read without locks, so every call must happen
// with the data plane parked. A call site is compliant when it sits
// inside the func-literal argument of quiesce/quiesceShards (the barrier
// runs it with every shard drained and stopped), or when an unconditional
// quiesce call precedes it on every control-flow path from the function's
// entry (the adopt/reparent orchestration shape). Anything else is a
// data race with the routers by construction (DESIGN.md §9, §13).
//
// Code that mutates state no pipeline can see — a back-end whose sole
// goroutine owns the egress — is a deliberate exception: annotate it with
// //tbon:allow mutationquiesce <reason>.
package mutationquiesce

import (
	"go/ast"
	"go/token"

	"repro/internal/lint"
)

// Analyzer is the mutation-barrier checker.
var Analyzer = &lint.Analyzer{
	Name: "mutationquiesce",
	Doc:  "routing-state mutation primitives must run under the quiesce barrier",
	Run:  run,
}

// primitives mutate routing state the shard pipelines read lock-free.
var primitives = map[string]bool{
	"installChild":    true,
	"setLink":         true,
	"applyInstall":    true,
	"repairStreams":   true,
	"rebuildSlots":    true,
	"redispatchStash": true,
}

// quiesces park the data plane and run their func-literal argument with
// every shard drained.
var quiesces = map[string]bool{
	"quiesce":       true,
	"quiesceShards": true,
}

func run(pass *lint.Pass) error {
	lint.FuncsOf(pass.Files, func(fd *ast.FuncDecl) {
		if primitives[fd.Name.Name] || quiesces[fd.Name.Name] {
			return // the primitives and the barrier itself compose freely
		}
		checkFunc(pass, fd)
	})
	return nil
}

func checkFunc(pass *lint.Pass, fd *ast.FuncDecl) {
	// Spans of func-literal arguments to quiesce calls: any primitive
	// call inside one runs with the plane parked.
	type span struct{ lo, hi token.Pos }
	var parked []span
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !quiesces[lint.CalleeName(call)] {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.FuncLit); ok {
				parked = append(parked, span{lit.Pos(), lit.End()})
			}
		}
		return true
	})
	inParked := func(pos token.Pos) bool {
		for _, s := range parked {
			if s.lo <= pos && pos < s.hi {
				return true
			}
		}
		return false
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !primitives[lint.CalleeName(call)] {
			return true
		}
		if inParked(call.Pos()) {
			return true
		}
		if dominatedByQuiesce(fd.Body, call) {
			return true
		}
		pass.Reportf(call.Pos(),
			"%s mutates routing state outside the quiesce barrier: wrap it in quiesceShards/quiesce or precede it with one on all paths (annotate pre-publication setup with //tbon:allow mutationquiesce)",
			lint.CalleeName(call))
		return true
	})
}

// dominatedByQuiesce reports whether every control-flow path from the
// function entry to target passes an unconditional quiesce call first:
// walking the chain of enclosing statement lists, some sibling statement
// before the one holding target must quiesce at its own top level (not
// under a branch, loop, or closure — those may not execute).
func dominatedByQuiesce(body *ast.BlockStmt, target ast.Node) bool {
	contains := func(s ast.Stmt) bool {
		return s.Pos() <= target.Pos() && target.End() <= s.End()
	}
	var walkList func(list []ast.Stmt) bool
	walkList = func(list []ast.Stmt) bool {
		for i, s := range list {
			if !contains(s) {
				continue
			}
			for j := 0; j < i; j++ {
				if unconditionalQuiesce(list[j]) {
					return true
				}
			}
			// Descend into the innermost statement list still containing
			// the target; the enclosing statement's own structure (if
			// arms, loop bodies) contributes no preceding siblings.
			found := false
			ast.Inspect(s, func(n ast.Node) bool {
				if found {
					return false
				}
				if b, ok := n.(*ast.BlockStmt); ok && b != nil && b.Pos() <= target.Pos() && target.End() <= b.End() {
					if walkList(b.List) {
						found = true
					}
					return !found
				}
				return true
			})
			return found
		}
		return false
	}
	return walkList(body.List)
}

// unconditionalQuiesce reports whether s always executes a quiesce call
// when s itself executes: the call may not hide under a branch, loop,
// select, or function literal within s.
func unconditionalQuiesce(s ast.Stmt) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		if found {
			return false
		}
		switch m := n.(type) {
		case *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt,
			*ast.TypeSwitchStmt, *ast.SelectStmt, *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false // conditional or deferred: does not dominate
		case *ast.CallExpr:
			if quiesces[lint.CalleeName(m)] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
