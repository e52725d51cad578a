package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Lockcheck verifies the repo's `// guarded by` annotations. Two
// annotation forms exist:
//
//   - `// guarded by <mu>` where <mu> names a sibling field of
//     sync.Mutex or sync.RWMutex type. Every access to the field must
//     then occur (a) after a `<base>.<mu>.Lock()` (or RLock) on the
//     same base expression earlier in the same function, (b) inside a
//     function following the *Locked suffix convention (the caller
//     holds the lock), or (c) on a freshly constructed value that is
//     not yet shared (the enclosing function built the base with a
//     composite literal or new).
//   - any other `// guarded by …` prose documents an external
//     contract (e.g. a single-owner structure guarded by its owner's
//     lock). Lockcheck then verifies the field is unexported, so the
//     contract cannot be bypassed from outside the package.
//
// The check is intra-procedural by design: a function that takes the
// named lock anywhere before the access is presumed to still hold it.
// That approximation catches the real regression class — a new code
// path touching shared state with no lock in sight — without a
// whole-program lock graph.
var Lockcheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "verifies `// guarded by` field annotations against actual lock acquisitions",
	Run:  runLockcheck,
}

// strictGuardRe extracts the sibling-mutex form of the annotation.
var strictGuardRe = regexp.MustCompile(`(?m)guarded by ([A-Za-z_][A-Za-z0-9_]*)\.?\s*$`)

// proseGuardRe recognizes any guarded-by prose.
var proseGuardRe = regexp.MustCompile(`guarded by\s+\S`)

// guardInfo describes one annotated field.
type guardInfo struct {
	mutex string // sibling mutex field name; "" for prose/external form
	field string
}

func runLockcheck(pass *Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncLocks(pass, fd, guards)
		}
	}
	return nil
}

// collectGuards parses every struct field annotation, reporting
// malformed contracts (a strict guard naming no sibling mutex, a
// prose guard on an exported field) as it goes.
func collectGuards(pass *Pass) map[types.Object]guardInfo {
	guards := map[types.Object]guardInfo{}
	pass.Preorder(func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok || st.Fields == nil {
			return true
		}
		for _, g := range structGuards(st) {
			for _, name := range g.field.Names {
				obj := pass.Info.Defs[name]
				if obj == nil {
					continue
				}
				switch {
				case g.mutex == "":
					// External-contract prose: encapsulation is the only
					// machine-checkable half, so demand it.
					if name.IsExported() {
						pass.Reportf(name.Pos(),
							"field %s declares an external guarded-by contract but is exported; unexport it or name a sibling mutex", name.Name)
					}
					guards[obj] = guardInfo{field: name.Name}
				case !g.sibling:
					pass.Reportf(name.Pos(),
						"field %s is `guarded by %s` but the struct has no sync.Mutex/RWMutex field %q", name.Name, g.mutex, g.mutex)
				default:
					guards[obj] = guardInfo{mutex: g.mutex, field: name.Name}
				}
			}
		}
		return true
	})
	return guards
}

// fieldGuard is one field's `// guarded by` annotation: mutex is the
// sibling field the strict form names ("" for prose), and sibling
// reports that the struct declares it as a sync.Mutex/RWMutex.
type fieldGuard struct {
	field   *ast.Field
	mutex   string
	sibling bool
}

// structGuards parses the annotations on st's fields, for lockcheck
// and for lockorder's *Locked seeds.
func structGuards(st *ast.StructType) []fieldGuard {
	var out []fieldGuard
	for _, field := range st.Fields.List {
		text := commentText(field.Doc) + "\n" + commentText(field.Comment)
		if !proseGuardRe.MatchString(text) {
			continue
		}
		g := fieldGuard{field: field}
		if m := strictGuardRe.FindStringSubmatch(text); m != nil {
			g.mutex, g.sibling = m[1], hasSiblingMutex(st, m[1])
		}
		out = append(out, g)
	}
	return out
}

func commentText(cg *ast.CommentGroup) string {
	if cg == nil {
		return ""
	}
	// Match line by line so `guarded by mu` anchors at a line end.
	var lines []string
	for _, c := range cg.List {
		lines = append(lines, strings.TrimSpace(strings.TrimPrefix(c.Text, "//")))
	}
	return strings.Join(lines, "\n")
}

// hasSiblingMutex reports whether the struct declares field mu of a
// sync mutex type.
func hasSiblingMutex(st *ast.StructType, mu string) bool {
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if name.Name != mu {
				continue
			}
			return isMutexExpr(field.Type)
		}
	}
	return false
}

func isMutexExpr(e ast.Expr) bool {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	base, ok := sel.X.(*ast.Ident)
	return ok && base.Name == "sync" && (sel.Sel.Name == "Mutex" || sel.Sel.Name == "RWMutex")
}

// lockEvent is one mu.Lock()/RLock() call site.
type lockEvent struct {
	base  string // rendered base expression, e.g. "sh"
	mutex string // mutex field name, e.g. "mu"
	pos   token.Pos
}

// checkFuncLocks verifies every annotated-field access in one
// function against the locks that function takes.
func checkFuncLocks(pass *Pass, fd *ast.FuncDecl, guards map[types.Object]guardInfo) {
	if strings.HasSuffix(fd.Name.Name, "Locked") {
		return
	}
	var locks []lockEvent
	fresh := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if ev, ok := asLockCall(x); ok {
				locks = append(locks, ev)
			}
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				if i >= len(x.Lhs) || !isFreshValue(rhs) {
					continue
				}
				if id, ok := x.Lhs[i].(*ast.Ident); ok {
					if obj := identObj(pass.Info, id); obj != nil {
						fresh[obj] = true
					}
				}
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[sel.Sel]
		g, annotated := guards[obj]
		if !annotated || g.mutex == "" {
			return true
		}
		if root := rootIdent(sel.X); root != nil {
			if o := identObj(pass.Info, root); o != nil && fresh[o] {
				return true
			}
		}
		base := types.ExprString(sel.X)
		for _, ev := range locks {
			if ev.mutex == g.mutex && ev.base == base && ev.pos < sel.Pos() {
				return true
			}
		}
		pass.Reportf(sel.Sel.Pos(),
			"%s.%s is guarded by %s.%s, which is not locked on this path (lock it, rename the func *Locked, or justify with lint:allow)",
			base, g.field, base, g.mutex)
		return true
	})
}

// asLockCall matches `<base>.<mu>.Lock()` and RLock.
func asLockCall(call *ast.CallExpr) (lockEvent, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
		return lockEvent{}, false
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return lockEvent{}, false
	}
	return lockEvent{
		base:  types.ExprString(inner.X),
		mutex: inner.Sel.Name,
		pos:   call.Pos(),
	}, true
}

// isFreshValue recognizes right-hand sides that construct a new,
// unshared value: &T{…}, T{…}, new(T).
func isFreshValue(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			_, ok := ast.Unparen(x.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}

// identObj resolves an identifier to its object, whether it is a use
// or a definition site.
func identObj(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}
