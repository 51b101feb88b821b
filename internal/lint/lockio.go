package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// lockio enforces the PR 5 hardening that already regressed once during
// that PR: file IO, fsync, and network calls must never run under the
// hot-path fan-out mutexes — the dedup-window and replay-ring locks,
// and the tsdb store/series locks. An fsync under one of those stalls
// every publisher (or every keyed request, or every reader) behind a
// disk flush. The protected locks are designated explicitly: a
// sync.Mutex or sync.RWMutex struct field whose comment contains the
// marker "districtlint:lockio". The analyzer then walks each function
// in the package, tracks which designated locks are held lexically
// (x.mu.Lock() … x.mu.Unlock(), branch bodies isolated), and flags any
// call that performs IO — directly (os, net, net/http, anything in
// internal/wal) or transitively through a package function or local
// closure that does.
var lockIOAnalyzer = &Analyzer{
	Name: "lockio",
	Doc:  "no file IO, fsync, or network calls lexically under a districtlint:lockio-designated mutex",
	Run:  runLockIO,
}

// lockIOMarker designates a mutex field in its doc or line comment.
const lockIOMarker = "districtlint:lockio"

// lockIOScope is the package set the rule applies to: the write path.
var lockIOScope = map[string]bool{
	walPkgPath:                 true,
	"repro/internal/measuredb": true,
	"repro/internal/stream":    true,
	"repro/internal/tsdb":      true,
}

func runLockIO(p *Pass) {
	if !lockIOScope[p.Path] {
		return
	}
	designated := designatedMutexes(p)
	if len(designated) == 0 {
		return
	}
	decls := p.funcDeclsOf()
	ioFuncs := transitiveIOFuncs(p, decls)
	for _, fd := range decls {
		w := &lockWalker{p: p, designated: designated, ioFuncs: ioFuncs}
		w.closures = localIOClosures(p, fd, ioFuncs)
		w.stmts(fd.Body.List, map[*types.Var]bool{})
	}
}

// designatedMutexes collects the struct fields of type sync.Mutex or
// sync.RWMutex whose comments carry the lockio marker.
func designatedMutexes(p *Pass) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !commentHas(field, lockIOMarker) {
					continue
				}
				for _, name := range field.Names {
					v, ok := p.Info.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					if isNamedType(v.Type(), "sync", "Mutex") || isNamedType(v.Type(), "sync", "RWMutex") {
						out[v] = true
					}
				}
			}
			return true
		})
	}
	return out
}

// commentHas reports whether a field's doc or line comment mentions the
// marker.
func commentHas(field *ast.Field, marker string) bool {
	for _, cg := range [...]*ast.CommentGroup{field.Doc, field.Comment} {
		if cg != nil && strings.Contains(cg.Text(), marker) {
			return true
		}
	}
	return false
}

// ioCall classifies one resolved callee as direct IO. The judgment is
// package-based: anything in os (minus pure predicates/env lookups),
// anything in net (minus parsers/formatters), the request/response IO
// of net/http, and every entry point of internal/wal — a WAL call is a
// journal write, a segment scan, or a blocked wait behind one — but for
// its pure accessors and Log.Stage, which frames a record in memory
// under a lock never held across IO.
func ioCall(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "os":
		switch name {
		case "IsNotExist", "IsExist", "IsPermission", "IsTimeout",
			"Getenv", "LookupEnv", "Environ", "Getpid", "TempDir", "Expand", "ExpandEnv":
			return false
		}
		return true
	case "net":
		switch name {
		case "JoinHostPort", "SplitHostPort", "ParseIP", "ParseCIDR", "CIDRMask", "ParseMAC":
			return false
		}
		return true
	case "net/http":
		switch name {
		case "Do", "RoundTrip", "Get", "Post", "PostForm", "Head",
			"Write", "WriteHeader", "Flush", "Hijack",
			"Serve", "ListenAndServe", "ListenAndServeTLS", "ReadResponse", "ReadRequest":
			return true
		}
		return false
	case walPkgPath:
		switch name {
		case "String", "ParseMode", "withDefaults", "LastSeq", "Segments", "Stage":
			return false
		}
		return true
	}
	return false
}

// transitiveIOFuncs computes, by fixpoint over the package call graph,
// which package-level functions perform IO directly or through another
// package function.
func transitiveIOFuncs(p *Pass, decls map[*types.Func]*ast.FuncDecl) map[types.Object]bool {
	io := map[types.Object]bool{}
	calls := map[types.Object][]types.Object{}
	for obj, fd := range decls {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeOf(p.Info, call)
			if callee == nil {
				return true
			}
			if ioCall(callee) {
				io[obj] = true
			} else if _, local := decls[calleeObjAsFunc(callee)]; local {
				calls[obj] = append(calls[obj], callee)
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for obj, callees := range calls {
			if io[obj] {
				continue
			}
			for _, c := range callees {
				if io[c] {
					io[obj] = true
					changed = true
					break
				}
			}
		}
	}
	return io
}

// calleeObjAsFunc narrows an object to *types.Func (nil otherwise),
// usable as a decls key.
func calleeObjAsFunc(obj types.Object) *types.Func {
	fn, _ := obj.(*types.Func)
	return fn
}

// localIOClosures classifies the function literals bound to local
// variables inside fd (name := func(){…}) that perform IO, so a
// flush()-style helper defined before the lock is still caught when
// called under it.
func localIOClosures(p *Pass, fd *ast.FuncDecl, ioFuncs map[types.Object]bool) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, rhs := range assign.Rhs {
			lit, ok := rhs.(*ast.FuncLit)
			if !ok {
				continue
			}
			ident, ok := assign.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			obj := p.Info.Defs[ident]
			if obj == nil {
				obj = p.Info.Uses[ident]
			}
			if obj == nil {
				continue
			}
			hasIO := false
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := calleeOf(p.Info, call); callee != nil && (ioCall(callee) || ioFuncs[callee]) {
					hasIO = true
				}
				return !hasIO
			})
			if hasIO {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// lockWalker tracks lexically held designated mutexes through one
// function body.
type lockWalker struct {
	p          *Pass
	designated map[*types.Var]bool
	ioFuncs    map[types.Object]bool
	closures   map[types.Object]bool
}

// stmts walks a statement list, updating held in place. Branch bodies
// run on clones: an unlock on an early-return path must not mark the
// fall-through path unlocked.
func (w *lockWalker) stmts(list []ast.Stmt, held map[*types.Var]bool) {
	for _, s := range list {
		w.stmt(s, held)
	}
}

func (w *lockWalker) stmt(s ast.Stmt, held map[*types.Var]bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if field, op, ok := w.lockOp(call); ok {
				if op == "Lock" || op == "RLock" {
					held[field] = true
				} else {
					delete(held, field)
				}
				return
			}
		}
		w.check(s, held)
	case *ast.DeferStmt:
		if field, op, ok := w.lockOp(s.Call); ok {
			// defer x.mu.Unlock(): held for the rest of the function —
			// leave the state as is. A deferred Lock would be a bug but
			// not this rule's.
			_ = field
			_ = op
			return
		}
		w.check(s, held)
	case *ast.BlockStmt:
		w.stmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.check(s.Cond, held)
		w.stmts(s.Body.List, clone(held))
		if s.Else != nil {
			w.stmt(s.Else, clone(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.check(s.Cond, held)
		}
		w.stmts(s.Body.List, clone(held))
	case *ast.RangeStmt:
		w.check(s.X, held)
		w.stmts(s.Body.List, clone(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.check(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, clone(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, clone(held))
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmts(cc.Body, clone(held))
			}
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	case *ast.GoStmt:
		// A goroutine launched under the lock does not hold it.
		return
	default:
		w.check(s, held)
	}
}

func clone(held map[*types.Var]bool) map[*types.Var]bool {
	out := make(map[*types.Var]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// lockOp recognizes x.<field>.Lock/Unlock/RLock/RUnlock() on a
// designated field.
func (w *lockWalker) lockOp(call *ast.CallExpr) (*types.Var, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return nil, "", false
	}
	recv, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	field, ok := w.p.Info.Uses[recv.Sel].(*types.Var)
	if !ok || !w.designated[field] {
		return nil, "", false
	}
	return field, op, true
}

// check flags IO calls inside one statement or expression while any
// designated mutex is held. Function literals are not descended into:
// their bodies execute when called, and calls through them are caught
// via the closure classification.
func (w *lockWalker) check(n ast.Node, held map[*types.Var]bool) {
	if len(held) == 0 {
		return
	}
	var name string
	for f := range held {
		name = f.Name()
		break
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeOf(w.p.Info, call)
		if callee == nil {
			return true
		}
		switch {
		case ioCall(callee):
			w.p.Reportf(call.Pos(), "%s performs file or network IO under designated mutex %q", callee.Name(), name)
		case w.ioFuncs[callee]:
			w.p.Reportf(call.Pos(), "call to %s runs file or network IO under designated mutex %q", callee.Name(), name)
		case w.closures[callee]:
			w.p.Reportf(call.Pos(), "closure %s runs file or network IO under designated mutex %q", callee.Name(), name)
		}
		return true
	})
}
