// Package lockorder builds a static lock graph over the repo's mutexes and
// reports two contract violations (DESIGN.md §11):
//
//  1. Order inversions. Every observed acquisition "B locked while A held"
//     adds the edge A→B; any cycle in the resulting graph is a potential
//     deadlock. The repo's sanctioned order is flushMu→mu on egressQueue;
//     this analyzer derives orders from the code rather than hard-coding
//     them, so a new inversion is caught no matter which half of it is new.
//
//  2. Blocking while holding a queue mutex. egressQueue.mu guards O(1)
//     bookkeeping and must never be held across a channel send, a link
//     send (TrySendBatch included: it finishes a frame the socket took
//     part of), a credit Acquire, or a hook-running Refill (Refund is
//     hook-free and explicitly safe). Other mutexes (recvMu, lane.mu) are
//     allowed to be held across blocking calls by design.
//
// Lock identity is syntactic: the mutex field name, with the generic name
// "mu" qualified by the owning type (the method receiver's type, or the
// last selector component otherwise — "nw.mu" and "fe.nw.mu" both key as
// "nw.mu"). Functions whose name ends in "Locked" are analyzed with their
// receiver's mu pre-held, matching the repo's calling convention. Calls are
// resolved by bare name to per-function acquisition summaries computed to a
// fixed point, so "holds A, calls f, f locks B" also contributes A→B.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"repro/internal/lint"
)

// Analyzer is the lockorder invariant checker.
var Analyzer = &lint.Analyzer{
	Name: "lockorder",
	Doc:  "detect mutex order inversions and blocking operations under a queue mutex",
	Run:  run,
}

// queueMutex marks the keys subject to the no-blocking rule.
func queueMutex(key string) bool {
	return key == "egressQueue.mu" || key == "mu"
}

// blockingCalls may block indefinitely (on a peer, a window, or a hook)
// and therefore must not run under a queue mutex.
var blockingCalls = map[string]bool{
	"Send":         true,
	"SendBatch":    true,
	"send":         true,
	"sendCtx":      true,
	"sendNow":      true,
	"sendAck":      true,
	"Acquire":      true,
	"Refill":       true,
	"TrySendBatch": true,
}

// lockKey derives the lock identity for a call like x.f.Lock(): the field
// name, qualified by the receiver's type (or the selector base) when the
// field is the generic "mu". Returns "" for non-mutex-shaped calls.
func lockKey(call *ast.CallExpr, recvVar, recvType string) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch base := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		field := base.Sel.Name
		if field != "mu" {
			return field
		}
		// Qualify: x.mu where x is the method receiver → Type.mu, else the
		// nearest selector component → comp.mu.
		switch owner := ast.Unparen(base.X).(type) {
		case *ast.Ident:
			if owner.Name == recvVar && recvType != "" {
				return recvType + ".mu"
			}
			return owner.Name + ".mu"
		case *ast.SelectorExpr:
			return owner.Sel.Name + ".mu"
		}
		return "mu"
	case *ast.Ident:
		// mu.Lock() on a package-level or local mutex.
		if strings.HasSuffix(base.Name, "mu") || strings.HasSuffix(base.Name, "Mu") {
			return base.Name
		}
	}
	return ""
}

// edge is one observed "to acquired while from held" fact.
type edge struct {
	from, to string
	pos      token.Pos
}

// state threads the per-function walk.
type state struct {
	pass      *lint.Pass
	recvVar   string
	recvType  string
	held      map[string]bool
	summaries map[string]map[string]bool
	imports   map[string]bool
	edges     *[]edge
	reported  map[token.Pos]bool
}

// isPackageCall reports whether call's receiver is an imported package name.
func (st *state) isPackageCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && st.imports[id.Name]
}

func (st *state) heldKeys() []string {
	keys := make([]string, 0, len(st.held))
	for k, v := range st.held {
		if v {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// event processes one call expression for lock/unlock/edge/blocking effects.
func (st *state) event(call *ast.CallExpr, inDefer bool) {
	name := lint.CalleeName(call)
	switch name {
	case "Lock", "RLock", "TryLock":
		if key := lockKey(call, st.recvVar, st.recvType); key != "" {
			for _, h := range st.heldKeys() {
				if h != key {
					*st.edges = append(*st.edges, edge{from: h, to: key, pos: call.Pos()})
				}
			}
			st.held[key] = true
		}
		return
	case "Unlock", "RUnlock":
		if inDefer {
			return // deferred release: held to function end
		}
		if key := lockKey(call, st.recvVar, st.recvType); key != "" {
			st.held[key] = false
		}
		return
	}

	// Blocking call under a queue mutex?
	if blockingCalls[name] {
		for _, h := range st.heldKeys() {
			if queueMutex(h) && !st.reported[call.Pos()] {
				st.reported[call.Pos()] = true
				st.pass.Reportf(call.Pos(), "%s may block while holding %s: the queue mutex guards O(1) bookkeeping only — release it before sending or acquiring credit", name, h)
			}
		}
	}

	// Cross-function edges via the callee's acquisition summary. Two
	// summaries are knowably wrong and skipped: *Locked callees (they run
	// under the caller's mu by convention and may legitimately drop and
	// retake it — their true edges come from their own seeded walk), and
	// package-qualified calls (pkg.Recover is not this package's Recover).
	if strings.HasSuffix(name, "Locked") || st.isPackageCall(call) {
		return
	}
	if sum := st.summaries[name]; sum != nil {
		for _, h := range st.heldKeys() {
			for k := range sum {
				if k != h {
					*st.edges = append(*st.edges, edge{from: h, to: k, pos: call.Pos()})
				}
			}
		}
	}
}

// scanExpr walks an expression (or simple statement) in source order,
// firing event for each call; nested FuncLits are skipped.
func (st *state) scanExpr(n ast.Node, inDefer bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch c := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			// Visit arguments first (inner calls evaluate first), then the
			// call itself. ast.Inspect is pre-order, so recurse manually.
			for _, a := range c.Args {
				st.scanExpr(a, inDefer)
			}
			if sel, ok := c.Fun.(*ast.SelectorExpr); ok {
				st.scanExpr(sel.X, inDefer)
			}
			st.event(c, inDefer)
			return false
		}
		return true
	})
}

func clone(m map[string]bool) map[string]bool {
	c := make(map[string]bool, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// walkStmts processes statements sequentially, mutating st.held; branch
// bodies run on cloned held-sets (their lock effects do not escape).
func (st *state) walkStmts(list []ast.Stmt) {
	for _, s := range list {
		st.walkStmt(s)
	}
}

func (st *state) walkStmt(s ast.Stmt) {
	switch n := s.(type) {
	case nil:
	case *ast.BlockStmt:
		st.walkStmts(n.List)
	case *ast.DeferStmt:
		st.scanExpr(n.Call, true)
	case *ast.GoStmt:
		// Runs concurrently; its lock behavior is its own function's problem
		// (FuncLit bodies are analyzed separately with an empty held set).
		if _, ok := n.Call.Fun.(*ast.FuncLit); !ok {
			st.scanExpr(n.Call.Fun, false)
		}
	case *ast.IfStmt:
		st.walkStmt(n.Init)
		st.scanExpr(n.Cond, false)
		saved := st.held
		st.held = clone(saved)
		st.walkStmt(n.Body)
		st.held = clone(saved)
		st.walkStmt(n.Else)
		st.held = saved
	case *ast.ForStmt:
		st.walkStmt(n.Init)
		st.scanExpr(n.Cond, false)
		saved := st.held
		st.held = clone(saved)
		st.walkStmt(n.Body)
		st.walkStmt(n.Post)
		st.held = saved
	case *ast.RangeStmt:
		st.scanExpr(n.X, false)
		saved := st.held
		st.held = clone(saved)
		st.walkStmt(n.Body)
		st.held = saved
	case *ast.SwitchStmt:
		st.walkStmt(n.Init)
		st.scanExpr(n.Tag, false)
		saved := st.held
		for _, c := range n.Body.List {
			st.held = clone(saved)
			st.walkStmts(c.(*ast.CaseClause).Body)
		}
		st.held = saved
	case *ast.TypeSwitchStmt:
		st.walkStmt(n.Init)
		saved := st.held
		for _, c := range n.Body.List {
			st.held = clone(saved)
			st.walkStmts(c.(*ast.CaseClause).Body)
		}
		st.held = saved
	case *ast.SelectStmt:
		// A select with a default clause never blocks: its comm sends are
		// exempt from the queue-mutex rule (egress uses this for best-effort
		// slot reacquisition under mu).
		hasDefault := false
		for _, c := range n.Body.List {
			if c.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
		saved := st.held
		for _, c := range n.Body.List {
			cc := c.(*ast.CommClause)
			st.held = clone(saved)
			if cc.Comm != nil {
				if snd, ok := cc.Comm.(*ast.SendStmt); ok && hasDefault {
					st.scanExpr(snd.Chan, false)
					st.scanExpr(snd.Value, false)
				} else {
					st.walkStmt(cc.Comm)
				}
			}
			st.walkStmts(cc.Body)
		}
		st.held = saved
	case *ast.SendStmt:
		for _, h := range st.heldKeys() {
			if queueMutex(h) && !st.reported[n.Pos()] {
				st.reported[n.Pos()] = true
				st.pass.Reportf(n.Pos(), "channel send while holding %s: the queue mutex guards O(1) bookkeeping only — release it before communicating", h)
			}
		}
		st.scanExpr(n.Chan, false)
		st.scanExpr(n.Value, false)
	case *ast.LabeledStmt:
		st.walkStmt(n.Stmt)
	default:
		st.scanExpr(s, false)
	}
}

// directAcquires returns the lock keys a function body may acquire,
// ignoring FuncLits (they run on other goroutines or later).
func directAcquires(fd *ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	recvVar, recvType := lint.RecvVarName(fd), lint.RecvTypeName(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch lint.CalleeName(call) {
		case "Lock", "RLock", "TryLock":
			if key := lockKey(call, recvVar, recvType); key != "" {
				out[key] = true
			}
		}
		return true
	})
	return out
}

// importNames collects the package names a file's calls may be qualified
// with (the local alias, or the import path's last element).
func importNames(f *ast.File) map[string]bool {
	out := map[string]bool{}
	for _, imp := range f.Imports {
		if imp.Name != nil {
			out[imp.Name.Name] = true
			continue
		}
		path := strings.Trim(imp.Path.Value, `"`)
		if i := strings.LastIndexByte(path, '/'); i >= 0 {
			path = path[i+1:]
		}
		out[path] = true
	}
	return out
}

func run(pass *lint.Pass) error {
	// Pass 1: per-function direct acquisition summaries, then transitive
	// closure over bare-name call resolution. Package-qualified calls do
	// not resolve to this package's functions.
	summaries := map[string]map[string]bool{}
	calls := map[string]map[string]bool{} // caller name -> callee names
	fileImports := map[*ast.File]map[string]bool{}
	for _, f := range pass.Files {
		fileImports[f] = importNames(f)
		imports := fileImports[f]
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			if summaries[name] == nil {
				summaries[name] = map[string]bool{}
			}
			for k := range directAcquires(fd) {
				summaries[name][k] = true
			}
			if calls[name] == nil {
				calls[name] = map[string]bool{}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				c, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok {
					if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && imports[id.Name] {
						return true
					}
				}
				calls[name][lint.CalleeName(c)] = true
				return true
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for caller, callees := range calls {
			for callee := range callees {
				for k := range summaries[callee] {
					if !summaries[caller][k] {
						summaries[caller][k] = true
						changed = true
					}
				}
			}
		}
	}

	// Pass 2: walk each function (and each FuncLit as its own root) with
	// sequential held-set tracking, collecting edges and blocking reports.
	var edges []edge
	reported := map[token.Pos]bool{}
	walkRoot := func(body *ast.BlockStmt, recvVar, recvType string, imports, seed map[string]bool) {
		st := &state{
			pass: pass, recvVar: recvVar, recvType: recvType,
			held: seed, summaries: summaries, imports: imports,
			edges: &edges, reported: reported,
		}
		st.walkStmts(body.List)
	}
	for _, f := range pass.Files {
		imports := fileImports[f]
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			recvVar, recvType := lint.RecvVarName(fd), lint.RecvTypeName(fd)
			seed := map[string]bool{}
			if strings.HasSuffix(fd.Name.Name, "Locked") && recvType != "" {
				seed[recvType+".mu"] = true
			}
			walkRoot(fd.Body, recvVar, recvType, imports, seed)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					walkRoot(fl.Body, recvVar, recvType, imports, map[string]bool{})
					return false
				}
				return true
			})
		}
	}

	reportInversions(pass, edges)
	return nil
}

// reportInversions finds edges that participate in a cycle (the reverse
// order is also reachable) and reports each once.
func reportInversions(pass *lint.Pass, edges []edge) {
	adj := map[string]map[string]bool{}
	for _, e := range edges {
		if adj[e.from] == nil {
			adj[e.from] = map[string]bool{}
		}
		adj[e.from][e.to] = true
	}
	// reaches reports whether from can reach to in the edge graph.
	reaches := func(from, to string) bool {
		seen := map[string]bool{from: true}
		stack := []string{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for m := range adj[n] {
				if m == to {
					return true
				}
				if !seen[m] {
					seen[m] = true
					stack = append(stack, m)
				}
			}
		}
		return false
	}
	seenPair := map[string]bool{}
	for _, e := range edges {
		pair := e.from + "->" + e.to
		if seenPair[pair] {
			continue
		}
		if reaches(e.to, e.from) {
			seenPair[pair] = true
			pass.Reportf(e.pos, "lock order inversion: %s acquired while holding %s, but the opposite order also occurs — pick one order (repo convention: %s)", e.to, e.from, conventionHint(e.from, e.to))
		}
	}
}

// conventionHint names the sanctioned order for the repo's known pairs.
func conventionHint(a, b string) string {
	known := map[string]bool{"flushMu": true, "egressQueue.mu": true}
	if known[a] && known[b] {
		return "flushMu before mu"
	}
	return fmt.Sprintf("document and keep a single %s/%s order", a, b)
}
