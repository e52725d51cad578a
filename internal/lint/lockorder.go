package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Lockorder builds a whole-program lock-acquisition graph and fails
// on any cycle. Nodes are mutexes identified structurally —
// `pkg.Type.field` for a sync.Mutex/RWMutex struct field,
// `pkg.var` for a package-level mutex — so the same lock is one node
// no matter which package observes it. Edges come from two sources:
//
//   - direct nesting: a function that calls `b.mu2.Lock()` while an
//     earlier `a.mu1.Lock()` in the same body is still outstanding
//     contributes mu1 → mu2 (a plain Unlock releases; a deferred
//     Unlock holds to function end);
//   - calls: a function holding mu1 that calls (transitively, over
//     the go/types-resolved static call graph) anything acquiring mu2
//     contributes mu1 → mu2 at the call site.
//
// Functions following the *Locked suffix convention are seeded as
// holding their receiver's primary mutex — the `// guarded by`
// annotated field named mu, or the only candidate when that is
// unambiguous — which is how the guarded-by contracts feed the
// graph: publishLocked counts as holding Head.mu even though the
// Lock() call is in its caller. A type with several mutexes seeds
// only the primary: registerLocked holds Member.mu by convention,
// and demonstrably not the batchMu its own body acquires.
//
// A cycle — including a self-edge, which is a single-goroutine
// re-acquisition deadlock on Go's non-reentrant mutexes — is reported
// once, at its lexicographically first edge, listing every edge with
// its acquisition site. The walk is intra-procedurally linear (no
// path sensitivity); the held-set approximation is the same one
// lockcheck documents.
var Lockorder = &Analyzer{
	Name:       "lockorder",
	Doc:        "whole-program lock-acquisition graph must be acyclic (deadlock freedom)",
	RunProgram: runLockorder,
}

// loAcq is one lock acquisition with a representative site.
type loAcq struct {
	pkg *Package
	pos token.Pos
}

// loCall is one static call site with the locks held across it.
type loCall struct {
	callee string // types.Func FullName
	held   []string
	pkg    *Package
	pos    token.Pos
}

// loEdge is one ordered pair in the acquisition graph.
type loEdge struct {
	from, to string
	pkg      *Package
	pos      token.Pos
}

// loSummary is the per-function abstraction the fixpoint runs on.
type loSummary struct {
	acquires map[string]loAcq
	calls    []loCall
	edges    []loEdge
}

func runLockorder(pp *ProgramPass) error {
	summaries := map[string]*loSummary{}
	for _, pkg := range pp.Pkgs {
		annotated := annotatedMutexes(pkg)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				summarizeLocks(summaries, pkg, fd, fn, annotated)
			}
		}
	}

	edges := resolveLockEdges(summaries)
	reportLockCycles(pp, edges)
	return nil
}

// annotatedMutexes maps each named struct type in pkg to the set of
// sibling mutexes its `// guarded by <mu>` annotations name.
func annotatedMutexes(pkg *Package) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || st.Fields == nil {
					continue
				}
				for _, g := range structGuards(st) {
					if !g.sibling {
						continue
					}
					if out[ts.Name.Name] == nil {
						out[ts.Name.Name] = map[string]bool{}
					}
					out[ts.Name.Name][g.mutex] = true
				}
			}
		}
	}
	return out
}

// summarizeLocks walks one function body in source order, tracking
// the held-lock set through Lock/Unlock pairs and recording direct
// nesting edges plus every static call with its held snapshot.
// Function literals run at an unknown time with an unknown held-set
// (a cancel closure built under a lock fires long after it is
// released), so each gets its own anonymous summary with nothing
// held instead of inheriting the enclosing walk's state.
func summarizeLocks(summaries map[string]*loSummary, pkg *Package, fd *ast.FuncDecl, fn *types.Func, annotated map[string]map[string]bool) {
	name := fn.FullName()
	seed := lockedSeed(pkg, fd, fn, annotated)
	// A *Locked function that explicitly acquires one of its
	// receiver's mutexes demonstrably does not already hold it: the
	// suffix convention names the other one. Dropping the acquired
	// mutex from the seed avoids fabricating a self-deadlock out of
	// registerLocked taking batchMu while convention-holding mu.
	if len(seed) > 0 {
		selfAcquired := map[string]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if key, kind := mutexCallKey(pkg, call); kind == "lock" {
					selfAcquired[key] = true
				}
			}
			return true
		})
		kept := seed[:0]
		for _, k := range seed {
			if !selfAcquired[k] {
				kept = append(kept, k)
			}
		}
		seed = kept
	}
	lits := summarizeLockBody(summaries, pkg, fd.Body, name, seed)
	for i := 0; i < len(lits); i++ {
		lits = append(lits, summarizeLockBody(summaries, pkg, lits[i].Body,
			fmt.Sprintf("%s$%d", name, i+1), nil)...)
	}
}

// summarizeLockBody walks one body (function or literal) and stores
// its summary under name, returning the literals it skipped over for
// the caller to summarize separately.
func summarizeLockBody(summaries map[string]*loSummary, pkg *Package, body *ast.BlockStmt, name string, seed []string) []*ast.FuncLit {
	s := &loSummary{acquires: map[string]loAcq{}}
	held := map[string]bool{}
	for _, k := range seed {
		held[k] = true
	}
	deferred := map[*ast.CallExpr]bool{}
	var lits []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			lits = append(lits, x)
			return false
		case *ast.DeferStmt:
			deferred[x.Call] = true
		case *ast.CallExpr:
			key, kind := mutexCallKey(pkg, x)
			switch kind {
			case "lock":
				for _, h := range sortedKeys(held) {
					s.edges = append(s.edges, loEdge{from: h, to: key, pkg: pkg, pos: x.Pos()})
				}
				if _, ok := s.acquires[key]; !ok {
					s.acquires[key] = loAcq{pkg: pkg, pos: x.Pos()}
				}
				held[key] = true
			case "unlock":
				if !deferred[x] {
					delete(held, key)
				}
			default:
				if callee := funcObjOf(pkg.Info, x); callee != nil {
					s.calls = append(s.calls, loCall{
						callee: callee.FullName(),
						held:   sortedKeys(held),
						pkg:    pkg,
						pos:    x.Pos(),
					})
				}
			}
		}
		return true
	})
	summaries[name] = s
	return lits
}

// lockedSeed returns the lock key a *Locked-convention function is
// entered holding: its receiver's primary mutex. The bare Locked
// suffix names one lock, so a type with several mutexes seeds the
// annotated field called mu (the repo-wide primary-mutex name), or
// whichever candidate is unambiguous; when no single mutex can be
// singled out, nothing is seeded — the caller's held-set at the call
// site still contributes the edges.
func lockedSeed(pkg *Package, fd *ast.FuncDecl, fn *types.Func, annotated map[string]map[string]bool) []string {
	if !strings.HasSuffix(fd.Name.Name, "Locked") || fd.Recv == nil {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	named := namedOf(recv.Type())
	if named == nil {
		return nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	want := annotated[named.Obj().Name()]
	var candidates []string
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !isMutexType(f.Type()) {
			continue
		}
		if want != nil && !want[f.Name()] {
			continue
		}
		if f.Name() == "mu" {
			return []string{fieldLockKey(named, f.Name())}
		}
		candidates = append(candidates, fieldLockKey(named, f.Name()))
	}
	if len(candidates) == 1 {
		return candidates
	}
	return nil
}

// mutexCallKey classifies a call as a mutex acquisition or release
// and returns the lock's structural key. kind is "lock", "unlock" or
// "" (not a trackable mutex operation).
func mutexCallKey(pkg *Package, call *ast.CallExpr) (key, kind string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = "lock"
	case "Unlock", "RUnlock":
		kind = "unlock"
	default:
		return "", ""
	}
	// The receiver expression must itself be mutex-typed; this also
	// covers embedded sync.Mutex via a named lockable type.
	if !isMutexType(typeOf(pkg.Info, sel.X)) {
		return "", ""
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		named := namedOf(typeOf(pkg.Info, x.X))
		if named == nil {
			return "", ""
		}
		return fieldLockKey(named, x.Sel.Name), kind
	case *ast.Ident:
		obj := identObj(pkg.Info, x)
		if obj == nil || obj.Pkg() == nil {
			return "", ""
		}
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name(), kind
		}
	}
	// Function-local mutexes cannot participate in a cross-function
	// ordering cycle under this model; ignore them.
	return "", ""
}

// fieldLockKey names a mutex field of a named type structurally.
func fieldLockKey(named *types.Named, field string) string {
	pkgPath := ""
	if p := named.Obj().Pkg(); p != nil {
		pkgPath = p.Path()
	}
	return pkgPath + "." + named.Obj().Name() + "." + field
}

// namedOf unwraps pointers/aliases down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isMutexType reports whether t is (a pointer to) sync.Mutex or
// sync.RWMutex.
func isMutexType(t types.Type) bool {
	n := namedOf(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// resolveLockEdges closes the per-function summaries over the static
// call graph: each function's transitive acquisition set is the
// fixpoint of its own acquisitions plus its callees', and every call
// made with locks held contributes held → transitively-acquired
// edges at the call site.
func resolveLockEdges(summaries map[string]*loSummary) []loEdge {
	names := sortedKeys(summaries)

	trans := map[string]map[string]loAcq{}
	for name, s := range summaries {
		t := map[string]loAcq{}
		for k, a := range s.acquires {
			t[k] = a
		}
		trans[name] = t
	}
	for changed := true; changed; {
		changed = false
		for _, name := range names {
			t := trans[name]
			for _, c := range summaries[name].calls {
				for k, a := range trans[c.callee] {
					if _, ok := t[k]; !ok {
						t[k] = a
						changed = true
					}
				}
			}
		}
	}

	var edges []loEdge
	for _, name := range names {
		s := summaries[name]
		edges = append(edges, s.edges...)
		for _, c := range s.calls {
			if len(c.held) == 0 {
				continue
			}
			acq := trans[c.callee]
			for _, h := range c.held {
				for _, k := range sortedKeys(acq) {
					edges = append(edges, loEdge{from: h, to: k, pkg: c.pkg, pos: c.pos})
				}
			}
		}
	}
	return edges
}

// reportLockCycles finds strongly connected components of the edge
// set and reports each component holding a cycle exactly once.
func reportLockCycles(pp *ProgramPass, edges []loEdge) {
	// Deduplicate to one representative edge per ordered pair,
	// keeping the first in (from, to, position) order for stable
	// messages across runs.
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.from != b.from {
			return a.from < b.from
		}
		if a.to != b.to {
			return a.to < b.to
		}
		return a.pkg.Fset.Position(a.pos).String() < b.pkg.Fset.Position(b.pos).String()
	})
	adj := map[string][]loEdge{}
	seen := map[[2]string]bool{}
	var nodes []string
	nodeSeen := map[string]bool{}
	for _, e := range edges {
		pair := [2]string{e.from, e.to}
		if seen[pair] {
			continue
		}
		seen[pair] = true
		adj[e.from] = append(adj[e.from], e)
		for _, n := range []string{e.from, e.to} {
			if !nodeSeen[n] {
				nodeSeen[n] = true
				nodes = append(nodes, n)
			}
		}
	}
	sort.Strings(nodes)

	for _, scc := range stronglyConnected(nodes, adj) {
		inSCC := map[string]bool{}
		for _, n := range scc {
			inSCC[n] = true
		}
		var cyc []loEdge
		for _, n := range scc {
			for _, e := range adj[n] {
				if inSCC[e.to] && (len(scc) > 1 || e.to == e.from) {
					cyc = append(cyc, e)
				}
			}
		}
		if len(cyc) == 0 {
			continue
		}
		sort.Slice(cyc, func(i, j int) bool {
			if cyc[i].from != cyc[j].from {
				return cyc[i].from < cyc[j].from
			}
			return cyc[i].to < cyc[j].to
		})
		var parts []string
		for _, e := range cyc {
			parts = append(parts, fmt.Sprintf("%s → %s (%s)",
				shortLockKey(e.from), shortLockKey(e.to),
				e.pkg.Fset.Position(e.pos)))
		}
		first := cyc[0]
		pp.Reportf(first.pkg, first.pos,
			"lock-order cycle (potential deadlock): %s; break the cycle or justify with lint:allow",
			strings.Join(parts, ", "))
	}
}

// shortLockKey trims the module path for readable messages while
// keeping keys unambiguous enough in practice (last path element).
func shortLockKey(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}

// stronglyConnected is an iterative Tarjan over string nodes,
// returning only components that can contain a cycle (size > 1, or a
// single node with a self-edge — the caller re-checks the latter).
func stronglyConnected(nodes []string, adj map[string][]loEdge) [][]string {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0

	type frame struct {
		node string
		ei   int
	}
	for _, start := range nodes {
		if _, ok := index[start]; ok {
			continue
		}
		frames := []frame{{node: start}}
		index[start], low[start] = next, next
		next++
		stack = append(stack, start)
		onStack[start] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(adj[f.node]) {
				w := adj[f.node][f.ei].to
				f.ei++
				if _, ok := index[w]; !ok {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{node: w})
				} else if onStack[w] && index[w] < low[f.node] {
					low[f.node] = index[w]
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[f.node] < low[parent.node] {
					low[parent.node] = low[f.node]
				}
			}
			if low[f.node] == index[f.node] {
				var scc []string
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == f.node {
						break
					}
				}
				sort.Strings(scc)
				sccs = append(sccs, scc)
			}
		}
	}
	return sccs
}
