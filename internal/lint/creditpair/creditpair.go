// Package creditpair is a lostcancel-style checker for the credit
// protocol: every FlowLink.Acquire / TryAcquire / TryAcquireN (and
// Budget.Acquire) must, on every control-flow path from the acquisition to
// the function's exit, either spend the credit on a send or give it back —
// Refund, Release, or Abort. A path that returns without
// doing either leaks a send credit: the link's window shrinks permanently
// and eventually wedges every sender sharing the link (DESIGN.md §8).
//
// Recognized acquisition shapes:
//
//	b.Acquire(stopA, stopB)                   // statement: held afterwards
//	ok := fl.Acquire(a, b)                    // held afterwards (both arms)
//	if !fl.TryAcquire() { ... }               // failure arm exempt, held after
//	if cond || !fl.Acquire(a, b) { ... }      // same, inside a ||/&& chain
//	if fl.TryAcquire() { ... }                // held inside the then arm
//	k := fl.TryAcquireN(n)                    // counted: held while k > 0,
//	if k == 0 { ... }                         // so this arm is exempt
//	                                          // (likewise else of k > 0)
//
// Functions that DEFINE the primitives (named Acquire/TryAcquire/
// TryAcquireN) are skipped, as are functions using
// goto/labels or a deferred release (analyzed conservatively as safe). Ownership transfer —
// returning still-spendable credits to the caller, as the egress
// scheduler's take does — is a deliberate exception: annotate it with
// //tbon:allow creditpair <reason>.
package creditpair

import (
	"go/ast"

	"repro/internal/lint"
)

// Analyzer is the creditpair invariant checker.
var Analyzer = &lint.Analyzer{
	Name: "creditpair",
	Doc:  "every credit acquisition must be sent, refunded, or aborted on all control-flow paths",
	Run:  run,
}

var acquireNames = map[string]bool{
	"Acquire":     true,
	"TryAcquire":  true,
	"TryAcquireN": true,
}

// releases give a credit (or its budget stamp) back without sending.
var releases = map[string]bool{
	"Refund":  true,
	"Release": true,
	"Abort":   true,
}

// consumes spend the credit on the wire (directly or by enqueueing into an
// egress queue that owns the accounting from then on).
var consumes = map[string]bool{
	"Send":       true,
	"SendBatch":  true,
	"SendPacket": true,
	"send":       true,
	"sendCtx":    true,
	"sendNow":    true,
	"sendAck":    true,
	"enqueue":    true,
	"Multicast":  true,
}

func run(pass *lint.Pass) error {
	lint.FuncsOf(pass.Files, func(fd *ast.FuncDecl) {
		if acquireNames[fd.Name.Name] {
			return // the primitive itself constructs credits for its caller
		}
		checkFunc(pass, fd)
	})
	return nil
}

// settles reports whether n contains any call that settles a held credit.
func settles(n ast.Node) bool {
	if n == nil {
		return false
	}
	ok := false
	ast.Inspect(n, func(m ast.Node) bool {
		if ok {
			return false
		}
		if call, isCall := m.(*ast.CallExpr); isCall {
			name := lint.CalleeName(call)
			if releases[name] || consumes[name] {
				ok = true
				return false
			}
		}
		return true
	})
	return ok
}

// outcome describes where control can go from a statement sequence while
// the credit is still unsettled.
type outcome struct {
	fall bool // falls off the end of the sequence
	ret  bool // reaches a return
	brk  bool // reaches a break out of the enclosing loop/switch
	cont bool // reaches a continue of the enclosing loop
}

func (o outcome) or(p outcome) outcome {
	return outcome{o.fall || p.fall, o.ret || p.ret, o.brk || p.brk, o.cont || p.cont}
}

// none means every path settled the credit.
var none = outcome{}

// walker evaluates reachability-without-settling over a function body.
type walker struct {
	bail bool // goto/labels/deferred release: analyze as safe
	// count names the variable a counted acquisition assigned; an if arm
	// it rules out (count == 0) holds no credit.
	count string
}

func (w *walker) stmts(list []ast.Stmt, from int) outcome {
	acc := none
	for i := from; i < len(list); i++ {
		r := w.stmt(list[i])
		acc.ret = acc.ret || r.ret
		acc.brk = acc.brk || r.brk
		acc.cont = acc.cont || r.cont
		if !r.fall {
			return acc // no unsettled path continues past this statement
		}
	}
	acc.fall = true
	return acc
}

func (w *walker) stmt(s ast.Stmt) outcome {
	if w.bail {
		return none
	}
	switch st := s.(type) {
	case nil:
		return outcome{fall: true}
	case *ast.ReturnStmt:
		if settles(st) {
			return none
		}
		return outcome{ret: true}
	case *ast.BranchStmt:
		if st.Label != nil {
			w.bail = true
			return none
		}
		switch st.Tok.String() {
		case "break":
			return outcome{brk: true}
		case "continue":
			return outcome{cont: true}
		default: // goto, fallthrough
			w.bail = true
			return none
		}
	case *ast.LabeledStmt:
		w.bail = true
		return none
	case *ast.DeferStmt:
		if settles(st) {
			w.bail = true // a deferred settle covers every exit
		}
		return outcome{fall: true}
	case *ast.BlockStmt:
		return w.stmts(st.List, 0)
	case *ast.IfStmt:
		if settles(st.Init) || settles(st.Cond) {
			return none
		}
		held, zero := w.countArms(st.Cond)
		r := none
		if !zero {
			r = w.stmt(st.Body)
		}
		if held {
			return r // the else arm (or skipping the if) holds no credit
		}
		if st.Else != nil {
			return r.or(w.stmt(st.Else))
		}
		r.fall = true
		return r
	case *ast.ForStmt:
		if settles(st.Init) || settles(st.Cond) || settles(st.Post) {
			return none
		}
		body := w.stmt(st.Body)
		out := outcome{ret: body.ret}
		// The loop exits when the condition fails (possible iff there is a
		// condition) or via break; continue/fall re-enter the loop, which
		// can only repeat the same exits.
		out.fall = st.Cond != nil || body.brk
		return out
	case *ast.RangeStmt:
		if settles(st.X) {
			return none
		}
		body := w.stmt(st.Body)
		return outcome{fall: true, ret: body.ret} // empty range skips the body
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var init, tag ast.Node
		var body *ast.BlockStmt
		hasDefault := false
		if sw, ok := st.(*ast.SwitchStmt); ok {
			init, tag, body = sw.Init, sw.Tag, sw.Body
		} else {
			ts := st.(*ast.TypeSwitchStmt)
			init, tag, body = ts.Init, ts.Assign, ts.Body
		}
		if settles(init) || settles(tag) {
			return none
		}
		out := none
		for _, c := range body.List {
			cc := c.(*ast.CaseClause)
			if cc.List == nil {
				hasDefault = true
			}
			r := w.stmts(cc.Body, 0)
			out.ret = out.ret || r.ret
			out.cont = out.cont || r.cont
			// break (explicit or implicit fall) exits the switch.
			out.fall = out.fall || r.fall || r.brk
		}
		if !hasDefault {
			out.fall = true
		}
		return out
	case *ast.SelectStmt:
		out := none
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			if settles(cc.Comm) {
				continue
			}
			r := w.stmts(cc.Body, 0)
			out.ret = out.ret || r.ret
			out.cont = out.cont || r.cont
			out.fall = out.fall || r.fall || r.brk
		}
		return out
	default:
		if settles(s) {
			return none
		}
		return outcome{fall: true}
	}
}

// frame is one step of the path from the function body down to the
// statement holding the acquire call.
type frame struct {
	list []ast.Stmt
	idx  int
	encl ast.Stmt // the statement the next-inner frame lives in
}

// findFrames locates the statement containing pos and returns the chain of
// enclosing statement lists, outermost first.
func findFrames(body *ast.BlockStmt, target ast.Node) []frame {
	var path []frame
	var search func(list []ast.Stmt) bool
	contains := func(s ast.Stmt) bool {
		return s.Pos() <= target.Pos() && target.End() <= s.End()
	}
	search = func(list []ast.Stmt) bool {
		for i, s := range list {
			if !contains(s) {
				continue
			}
			path = append(path, frame{list: list, idx: i, encl: s})
			ast.Inspect(s, func(n ast.Node) bool {
				if b, ok := n.(*ast.BlockStmt); ok && n.Pos() <= target.Pos() && target.End() <= n.End() {
					// Recurse into the innermost block containing target.
					for j, inner := range b.List {
						if contains(inner) {
							_ = j
							search(b.List)
							return false
						}
					}
				}
				return true
			})
			return true
		}
		return false
	}
	search(body.List)
	return path
}

func checkFunc(pass *lint.Pass, fd *ast.FuncDecl) {
	var acquires []*ast.CallExpr
	hasDefer := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch m := n.(type) {
		case *ast.CallExpr:
			if acquireNames[lint.CalleeName(m)] {
				acquires = append(acquires, m)
			}
		case *ast.DeferStmt:
			if settles(m) {
				hasDefer = true
			}
		case *ast.FuncLit:
			return false // closures get their own semantics; skip
		}
		return true
	})
	if len(acquires) == 0 || hasDefer {
		return
	}

	for _, acq := range acquires {
		frames := findFrames(fd.Body, acq)
		if len(frames) == 0 {
			continue
		}
		inner := frames[len(frames)-1]

		w := &walker{count: countVar(inner.encl, acq)}
		acc := none
		// If the acquire sits in an if-condition, the failure arm holds no
		// credit: start past the if when the call is negated, inside the
		// then-arm when it is positive.
		startIdx := inner.idx + 1
		if ifs, ok := inner.encl.(*ast.IfStmt); ok && ifs.Cond != nil && containsNode(ifs.Cond, acq) {
			if negated(ifs.Cond, acq) {
				// held only after the if; the then-arm is the failure arm
				// (it may also fall through to the same continuation, which
				// the walk below covers).
				acc = acc.or(w.stmts(inner.list, inner.idx+1))
				startIdx = len(inner.list) // consumed
			} else {
				r := w.stmt(ifs.Body)
				acc.ret = acc.ret || r.ret
				acc.brk = acc.brk || r.brk
				acc.cont = acc.cont || r.cont
				if r.fall {
					acc = acc.or(w.stmts(inner.list, inner.idx+1))
				}
				startIdx = len(inner.list)
			}
		}
		if startIdx <= inner.idx+1 {
			acc = acc.or(w.stmts(inner.list, inner.idx+1))
		}

		// Propagate fall/break/continue up through the enclosing frames.
		for fi := len(frames) - 2; fi >= 0; fi-- {
			if w.bail {
				break
			}
			f := frames[fi]
			escaped := acc.fall
			switch f.encl.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				escaped = acc.fall || acc.brk || acc.cont
				acc.brk, acc.cont = false, false
			case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				escaped = acc.fall || acc.brk
				acc.brk = false
			}
			acc.fall = false
			if escaped {
				r := w.stmts(f.list, f.idx+1)
				acc = acc.or(r)
			}
		}

		if w.bail {
			continue
		}
		if acc.ret || acc.fall {
			pass.Reportf(acq.Pos(), "credit acquired by %s may leak: a control-flow path reaches return without a send or Refund/Release/Abort (annotate intentional ownership transfer with //tbon:allow creditpair)", lint.CalleeName(acq))
		}
	}
}

// countVar returns the variable a counted acquisition is assigned to
// (k := fl.TryAcquireN(n), or k = ...), or "" for any other shape.
func countVar(s ast.Stmt, acq *ast.CallExpr) string {
	as, ok := s.(*ast.AssignStmt)
	if !ok || lint.CalleeName(acq) != "TryAcquireN" || len(as.Lhs) != 1 || len(as.Rhs) != 1 || ast.Unparen(as.Rhs[0]) != acq {
		return ""
	}
	if id, ok := as.Lhs[0].(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// countArms reports whether cond compares the walker's count variable
// against zero, and which way: held means only the then arm can hold
// credits (k > 0, k != 0, k >= 1), zero that the then arm holds none
// (k == 0, k <= 0, k < 1).
func (w *walker) countArms(cond ast.Expr) (held, zero bool) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if w.count == "" || !ok {
		return false, false
	}
	id, ok := ast.Unparen(be.X).(*ast.Ident)
	lit, isLit := ast.Unparen(be.Y).(*ast.BasicLit)
	if !ok || id.Name != w.count || !isLit {
		return false, false
	}
	switch be.Op.String() + lit.Value {
	case ">0", "!=0", ">=1":
		return true, false
	case "==0", "<=0", "<1":
		return false, true
	}
	return false, false
}

// containsNode reports whether target lies within n.
func containsNode(n ast.Node, target ast.Node) bool {
	return n.Pos() <= target.Pos() && target.End() <= n.End()
}

// negated reports whether the acquire call appears under a ! operator
// inside cond (searching through parens and &&/|| chains).
func negated(cond ast.Expr, acq *ast.CallExpr) bool {
	neg := false
	var walk func(e ast.Expr, underNot bool)
	walk = func(e ast.Expr, underNot bool) {
		switch x := e.(type) {
		case *ast.ParenExpr:
			walk(x.X, underNot)
		case *ast.UnaryExpr:
			if x.Op.String() == "!" {
				walk(x.X, !underNot)
			}
		case *ast.BinaryExpr:
			walk(x.X, underNot)
			walk(x.Y, underNot)
		case *ast.CallExpr:
			if x == acq && underNot {
				neg = true
			}
		}
	}
	walk(cond, false)
	return neg
}
