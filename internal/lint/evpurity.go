package lint

import (
	"go/ast"
	"go/types"
)

// Evpurity enforces the flight recorder's observe-don't-steer
// contract from both sides.
//
// Analyzer side (internal/core): a run with a recorder attached must
// be branch-identical to a run without one — that is the invariant
// TestAnalyzeFlightMatchesAnalyze pins at runtime, and this analyzer
// pins statically. Inside any region that executes only when a
// recorder is attached (an `if a.rec != nil { … }` body, the tail of
// a function after `if a.rec == nil { return }`), code may build
// evidence but must not change analyzer state:
//
//   - assignments may target only variables declared inside the
//     region or values of flight types (a Trail being filled, an
//     Evidence ref being attached);
//   - calls may reach the flight package, or same-package functions
//     that provably do not write through their receiver/parameters
//     (computed transitively over the package's static call graph);
//   - dynamic calls through stored function values, goroutine
//     launches and channel sends are flagged outright.
//
// Cross-package callees outside flight are presumed pure — the
// deliberate approximation that keeps the check intra-package.
//
// Flight side (internal/flight): observer entry points receive
// pointers into live analyzer state (records, trails). They must
// not write through any pointer/slice/map parameter — a Recorder
// mutates only itself.
//
// Triage side (internal/triage): the fast path observes every record
// the monitor will later replay into the full analyzer. Observe and
// its helpers get the same contract as flight observers — copy into
// the ring, never write through the record — or replay would feed
// the analyzer records the fast path had silently rewritten.
var Evpurity = &Analyzer{
	Name: "evpurity",
	Doc:  "flight observers must not mutate analyzer state; recorder-guarded code must not steer analysis",
	Run:  runEvpurity,
}

func runEvpurity(pass *Pass) error {
	switch {
	case pkgIs(pass.Pkg.Path(), modulePkg("internal/flight")),
		pkgIs(pass.Pkg.Path(), modulePkg("internal/triage")):
		checkObserverParams(pass)
	case pkgIs(pass.Pkg.Path(), modulePkg("internal/core")):
		checkRecorderGuards(pass)
	}
	return nil
}

// --- flight side ---

// checkObserverParams flags writes through pointer-typed parameters
// in flight functions.
func checkObserverParams(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			params := paramObjs(pass, fd, false)
			if len(params) == 0 {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						if obj := writeThrough(pass, lhs); obj != nil && params[obj] {
							pass.Reportf(lhs.Pos(),
								"observer writes through its parameter %s; flight code must mutate only the recorder", obj.Name())
						}
					}
				case *ast.IncDecStmt:
					if obj := writeThrough(pass, x.X); obj != nil && params[obj] {
						pass.Reportf(x.Pos(),
							"observer writes through its parameter %s; flight code must mutate only the recorder", obj.Name())
					}
				}
				return true
			})
		}
	}
}

// paramObjs collects the reference-typed (pointer/slice/map)
// parameter objects of fd; withRecv includes the receiver.
func paramObjs(pass *Pass, fd *ast.FuncDecl, withRecv bool) map[types.Object]bool {
	out := map[types.Object]bool{}
	add := func(fields *ast.FieldList) {
		if fields == nil {
			return
		}
		for _, f := range fields.List {
			for _, name := range f.Names {
				obj := pass.Info.Defs[name]
				if obj == nil {
					continue
				}
				switch obj.Type().Underlying().(type) {
				case *types.Pointer, *types.Slice, *types.Map:
					out[obj] = true
				}
			}
		}
	}
	add(fd.Type.Params)
	if withRecv {
		add(fd.Recv)
	}
	return out
}

// writeThrough returns the root object when lhs writes *through* a
// reference (selector, index or dereference chain); assigning to the
// bare identifier itself only rebinds a local and returns nil.
func writeThrough(pass *Pass, lhs ast.Expr) types.Object {
	switch ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return nil
	}
	root := rootIdent(lhs)
	if root == nil {
		return nil
	}
	return identObj(pass.Info, root)
}

// --- core side ---

// checkRecorderGuards walks every function, locating recorder-guarded
// regions and validating the statements inside them.
func checkRecorderGuards(pass *Pass) {
	writers := packageWriters(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			walkGuardRegions(pass, fd.Body.List, writers)
		}
	}
}

// walkGuardRegions scans a statement list for recorder-attachment
// guards and checks each guarded region.
func walkGuardRegions(pass *Pass, stmts []ast.Stmt, writers map[*types.Func]bool) {
	for i, s := range stmts {
		ifs, ok := s.(*ast.IfStmt)
		if ok {
			switch guardKind(pass, ifs.Cond) {
			case guardAttached:
				checkGuardedRegion(pass, ifs.Body.List, writers)
				if ifs.Else != nil {
					walkGuardRegions(pass, elseStmts(ifs.Else), writers)
				}
				continue
			case guardDetached:
				walkGuardRegions(pass, ifs.Body.List, writers)
				if terminates(ifs.Body) {
					// `if rec == nil { return }`: the rest of this block
					// runs only with a recorder attached.
					checkGuardedRegion(pass, stmts[i+1:], writers)
					return
				}
				continue
			}
		}
		// Recurse into nested unguarded scopes.
		for _, body := range nestedBlocks(s) {
			walkGuardRegions(pass, body, writers)
		}
	}
}

type guard int

const (
	guardNone     guard = iota
	guardAttached       // condition true ⇒ recorder attached
	guardDetached       // condition true ⇒ recorder absent
)

// guardKind classifies a condition as a recorder-attachment test:
// `x != nil` / `x == nil` on a *flight.Recorder.
func guardKind(pass *Pass, cond ast.Expr) guard {
	x, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return guardNone
	}
	var other ast.Expr
	if isNilIdent(pass, x.X) {
		other = x.Y
	} else if isNilIdent(pass, x.Y) {
		other = x.X
	} else {
		return guardNone
	}
	if !isRecorderPtr(pass.Info.TypeOf(other)) {
		return guardNone
	}
	switch x.Op.String() {
	case "!=":
		return guardAttached
	case "==":
		return guardDetached
	}
	return guardNone
}

func isNilIdent(pass *Pass, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := pass.Info.Uses[id].(*types.Nil)
	return isNil
}

func isRecorderPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == "Recorder" && pkgIs(n.Obj().Pkg().Path(), modulePkg("internal/flight"))
}

// terminates reports whether a block always transfers control out.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	}
	return false
}

// elseStmts flattens an else arm into a statement list.
func elseStmts(s ast.Stmt) []ast.Stmt {
	switch x := s.(type) {
	case *ast.BlockStmt:
		return x.List
	default:
		return []ast.Stmt{x}
	}
}

// nestedBlocks lists the statement lists nested one level inside s.
func nestedBlocks(s ast.Stmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	switch x := s.(type) {
	case *ast.BlockStmt:
		out = append(out, x.List)
	case *ast.ForStmt:
		out = append(out, x.Body.List)
	case *ast.RangeStmt:
		out = append(out, x.Body.List)
	case *ast.IfStmt:
		out = append(out, x.Body.List)
		if x.Else != nil {
			out = append(out, elseStmts(x.Else))
		}
	case *ast.SwitchStmt:
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.LabeledStmt:
		out = append(out, []ast.Stmt{x.Stmt})
	}
	return out
}

// checkGuardedRegion validates every statement of one recorder-only
// region.
func checkGuardedRegion(pass *Pass, stmts []ast.Stmt, writers map[*types.Func]bool) {
	if len(stmts) == 0 {
		return
	}
	lo, hi := stmts[0].Pos(), stmts[len(stmts)-1].End()
	inRegion := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= lo && obj.Pos() < hi
	}
	for _, s := range stmts {
		ast.Inspect(s, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					checkGuardedWrite(pass, lhs, inRegion)
				}
			case *ast.IncDecStmt:
				checkGuardedWrite(pass, x.X, inRegion)
			case *ast.SendStmt:
				pass.Reportf(x.Pos(), "channel send inside a recorder-attached region steers execution; move it outside the guard")
			case *ast.GoStmt:
				pass.Reportf(x.Pos(), "goroutine launched inside a recorder-attached region; move it outside the guard")
			case *ast.CallExpr:
				checkGuardedCall(pass, x, writers)
			}
			return true
		})
	}
}

// checkGuardedWrite validates one assignment target inside a guarded
// region: block-locals and flight-typed destinations only.
func checkGuardedWrite(pass *Pass, lhs ast.Expr, inRegion func(types.Object) bool) {
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		obj := identObj(pass.Info, id)
		if inRegion(obj) || isFlightType(pass.Info.TypeOf(lhs)) {
			return
		}
		pass.Reportf(lhs.Pos(),
			"assignment to %s inside a recorder-attached region; the nil-recorder run would diverge", id.Name)
		return
	}
	root := rootIdent(lhs)
	if root != nil {
		if obj := identObj(pass.Info, root); inRegion(obj) {
			return
		}
	}
	if isFlightType(pass.Info.TypeOf(lhs)) {
		return
	}
	pass.Reportf(lhs.Pos(),
		"write to %s inside a recorder-attached region; the nil-recorder run would diverge", types.ExprString(lhs))
}

// checkGuardedCall validates one call inside a guarded region.
func checkGuardedCall(pass *Pass, call *ast.CallExpr, writers map[*types.Func]bool) {
	// Conversions are value-producing, not effectful.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	fun := ast.Unparen(call.Fun)
	var obj types.Object
	switch x := fun.(type) {
	case *ast.Ident:
		obj = pass.Info.Uses[x]
	case *ast.SelectorExpr:
		obj = pass.Info.Uses[x.Sel]
	default:
		// Calling a computed expression (e.g. a returned closure).
		pass.Reportf(call.Pos(), "dynamic call inside a recorder-attached region cannot be proven effect-free")
		return
	}
	switch o := obj.(type) {
	case *types.Builtin, *types.TypeName, nil:
		return
	case *types.Var:
		pass.Reportf(call.Pos(),
			"call through stored function value %s inside a recorder-attached region cannot be proven effect-free", o.Name())
	case *types.Func:
		pkg := o.Pkg()
		if pkg == nil {
			return
		}
		if pkgIs(pkg.Path(), modulePkg("internal/flight")) {
			return
		}
		if pkg.Path() == pass.Pkg.Path() && writers[o] {
			pass.Reportf(call.Pos(),
				"%s writes analyzer state and is called inside a recorder-attached region", o.Name())
		}
	}
}

// packageWriters computes, transitively over the package's static
// call graph, which functions write through their receiver or
// parameters (or package-level state). Writes to flight-typed
// destinations do not count: filling a Trail is the observer's job.
func packageWriters(pass *Pass) map[*types.Func]bool {
	type fnInfo struct {
		writes bool
		calls  []*types.Func
	}
	infos := map[*types.Func]*fnInfo{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fobj, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &fnInfo{}
			infos[fobj] = fi
			owned := paramObjs(pass, fd, true)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						if writerTarget(pass, lhs, owned) {
							fi.writes = true
						}
					}
				case *ast.IncDecStmt:
					if writerTarget(pass, x.X, owned) {
						fi.writes = true
					}
				case *ast.CallExpr:
					if callee := funcObjOf(pass.Info, x); callee != nil &&
						callee.Pkg() != nil && callee.Pkg().Path() == pass.Pkg.Path() {
						fi.calls = append(fi.calls, callee)
					}
				}
				return true
			})
		}
	}
	// Propagate writer-ness up the call graph to a fixed point.
	changed := true
	for changed {
		changed = false
		for _, fi := range infos {
			if fi.writes {
				continue
			}
			for _, callee := range fi.calls {
				if ci, ok := infos[callee]; ok && ci.writes {
					fi.writes = true
					changed = true
					break
				}
			}
		}
	}
	out := map[*types.Func]bool{}
	for f, fi := range infos {
		out[f] = fi.writes
	}
	return out
}

// writerTarget reports whether lhs writes through a receiver/param
// reference or a package-level variable, excluding flight-typed
// destinations.
func writerTarget(pass *Pass, lhs ast.Expr, owned map[types.Object]bool) bool {
	lhs = ast.Unparen(lhs)
	if isFlightType(pass.Info.TypeOf(lhs)) {
		return false
	}
	if id, ok := lhs.(*ast.Ident); ok {
		obj := identObj(pass.Info, id)
		v, isVar := obj.(*types.Var)
		return isVar && v.Parent() == pass.Pkg.Scope()
	}
	obj := writeThrough(pass, lhs)
	if obj == nil {
		return false
	}
	if owned[obj] {
		return true
	}
	v, isVar := obj.(*types.Var)
	return isVar && v.Parent() == pass.Pkg.Scope()
}
