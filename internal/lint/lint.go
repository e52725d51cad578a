package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. Run reports findings through
// the Pass; returning an error aborts the whole lint run (reserved
// for internal failures, not findings). An analyzer sets exactly one
// of Run (invoked once per package) or RunProgram (invoked once with
// every loaded package — for cross-package properties like lock-order
// cycles that no single compilation unit can see).
type Analyzer struct {
	Name       string
	Doc        string
	Run        func(*Pass) error
	RunProgram func(*ProgramPass) error
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Preorder walks every file of the pass in depth-first order.
func (p *Pass) Preorder(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// ProgramPass carries the whole loaded program through one
// whole-program analyzer.
type ProgramPass struct {
	Analyzer *Analyzer
	Pkgs     []*Package

	diags *[]Diagnostic
}

// Reportf records one finding at pos, resolved through pkg's fileset.
func (p *ProgramPass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers is the full tapolint suite in reporting order.
var Analyzers = []*Analyzer{
	Seqsafe, Detclock, Lockcheck, Evpurity, Jsontags, Hotalloc,
	Lockorder, Goexit, Wirefreeze,
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	analyzer string
	reason   string
	pos      token.Position
}

// allowRe matches the directive comment form. The directive must be
// the whole comment: `//lint:allow <analyzer> <reason...>`.
var allowRe = regexp.MustCompile(`^//lint:allow\s+(\S+)\s*(.*)$`)

// collectAllows parses every //lint:allow directive in the package,
// keyed by file:line.
func collectAllows(fset *token.FileSet, files []*ast.File) map[string][]allowDirective {
	out := map[string][]allowDirective{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				d := allowDirective{analyzer: m[1], reason: strings.TrimSpace(m[2]), pos: pos}
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				out[key] = append(out[key], d)
			}
		}
	}
	return out
}

// Run applies the analyzers to every package and returns the
// surviving findings, sorted by position. //lint:allow directives
// with a reason suppress matching findings on their own line or the
// line below; a reasonless directive is reported as a finding itself.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var perPkg, program []*Analyzer
	for _, a := range analyzers {
		if a.RunProgram != nil {
			program = append(program, a)
		} else {
			perPkg = append(perPkg, a)
		}
	}
	// Allow directives merge across packages (keys carry the filename)
	// so whole-program findings can be suppressed at their source line
	// exactly like per-package ones.
	merged := map[string][]allowDirective{}
	var all []Diagnostic
	for _, pkg := range pkgs {
		var diags []Diagnostic
		for _, a := range perPkg {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
		}
		allows := collectAllows(pkg.Fset, pkg.Files)
		for key, ds := range allows {
			merged[key] = append(merged[key], ds...)
		}
		for _, d := range diags {
			if suppressed(allows, d) {
				continue
			}
			all = append(all, d)
		}
		// A directive without a justification defeats the audit trail:
		// surface it whether or not it matched anything.
		for _, ds := range allows {
			for _, dir := range ds {
				if dir.reason == "" {
					all = append(all, Diagnostic{
						Analyzer: "lint",
						Pos:      dir.pos,
						Message:  fmt.Sprintf("lint:allow %s needs a reason", dir.analyzer),
					})
				}
			}
		}
	}
	var progDiags []Diagnostic
	for _, a := range program {
		pp := &ProgramPass{Analyzer: a, Pkgs: pkgs, diags: &progDiags}
		if err := a.RunProgram(pp); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	for _, d := range progDiags {
		if suppressed(merged, d) {
			continue
		}
		all = append(all, d)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return all, nil
}

// suppressed reports whether a reasoned allow directive on the
// finding's line, or the line above it, names the finding's analyzer.
func suppressed(allows map[string][]allowDirective, d Diagnostic) bool {
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, line)
		for _, dir := range allows[key] {
			if dir.analyzer == d.Analyzer && dir.reason != "" {
				return true
			}
		}
	}
	return false
}

// Allow is one //lint:allow directive, surfaced by the -allows audit.
type Allow struct {
	Pos      token.Position
	Analyzer string
	Reason   string
}

// Allows lists every //lint:allow directive in the packages, sorted
// by position. Reasonless directives come back with Reason == "" so
// the caller can fail the audit on them.
func Allows(pkgs []*Package) []Allow {
	var out []Allow
	for _, pkg := range pkgs {
		for _, ds := range collectAllows(pkg.Fset, pkg.Files) {
			for _, d := range ds {
				out = append(out, Allow{Pos: d.pos, Analyzer: d.analyzer, Reason: d.reason})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return out
}

// --- shared type/path helpers used by the analyzers ---

// pkgIs reports whether pkgPath is importPath or a package under it.
func pkgIs(pkgPath, importPath string) bool {
	return pkgPath == importPath || strings.HasPrefix(pkgPath, importPath+"/")
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// modulePkg converts a repo-relative package name to its import path.
func modulePkg(rel string) string { return path.Join("tcpstall", rel) }

// isFlightType reports whether t is (a pointer to) a named type
// declared in internal/flight.
func isFlightType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := n.Obj().Pkg()
	return pkg != nil && pkgIs(pkg.Path(), modulePkg("internal/flight"))
}

// funcObjOf resolves the statically-known callee of a call, or nil
// for dynamic calls, conversions and builtins.
func funcObjOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// rootIdent walks to the leftmost identifier of a selector/index/star
// chain, or nil when the base is not identifier-rooted.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
