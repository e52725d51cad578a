package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// Seqsafe flags raw ordered comparisons and subtraction on uint32
// TCP sequence/ack values outside internal/seqspace. Wire sequence
// numbers are modular: `a < b` inverts when the flow wraps 2^32, and
// `a - b` is only a distance after int32 reinterpretation. The
// wrap-safe forms are seqspace.LessEq/Diff, or unwrapping to
// uint64 stream offsets with a seqspace.Unwrapper.
//
// An operand is sequence-like when its uint32-typed expression is
// named like a sequence variable (seq/ack/isn/una/nxt/sack, or a
// SACK block edge). Equality tests and comparisons against constants
// are exempt: they are presence checks, not ordering.
var Seqsafe = &Analyzer{
	Name: "seqsafe",
	Doc:  "flags raw uint32 sequence-number ordering/subtraction outside internal/seqspace",
	Run:  runSeqsafe,
}

// seqNameRe matches identifiers that carry wire sequence values.
var seqNameRe = regexp.MustCompile(`(?i)(seq|ack|isn|una|nxt|sack)`)

// seqEdgeRe matches the SACK block edge field names on their own.
var seqEdgeRe = regexp.MustCompile(`^(Left|Right)$`)

func runSeqsafe(pass *Pass) error {
	if pkgIs(pass.Pkg.Path(), modulePkg("internal/seqspace")) {
		return nil
	}
	pass.Preorder(func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ, token.SUB:
		default:
			return true
		}
		if !isUint32(pass, be.X) || !isUint32(pass, be.Y) {
			return true
		}
		// Constant operands are presence/sanity checks (seq > 0), not
		// modular ordering.
		if isConst(pass, be.X) || isConst(pass, be.Y) {
			return true
		}
		if !seqNamed(be.X) && !seqNamed(be.Y) {
			return true
		}
		verb, fix := "comparison", "seqspace.LessEq/Diff"
		if be.Op == token.SUB {
			verb, fix = "subtraction", "seqspace.Diff"
		}
		pass.Reportf(be.OpPos,
			"raw uint32 sequence %s wraps at 2^32; use %s or a seqspace.Unwrapper", verb, fix)
		return true
	})
	return nil
}

func isUint32(pass *Pass, e ast.Expr) bool {
	t := pass.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint32
}

func isConst(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	return ok && tv.Value != nil
}

// seqNamed reports whether the expression's name marks it as a wire
// sequence value. It looks through parens and conversions and keys on
// the final identifier: x, pkt.Seq, s.SndNxt(), blk.Left.
func seqNamed(e ast.Expr) bool {
	name := ""
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		name = x.Name
	case *ast.SelectorExpr:
		name = x.Sel.Name
	case *ast.CallExpr:
		// A conversion or accessor: uint32(off), s.SndNxt().
		switch fun := ast.Unparen(x.Fun).(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		// uint32(x) conversions: judge the converted expression.
		if name == "uint32" && len(x.Args) == 1 {
			return seqNamed(x.Args[0])
		}
	}
	if name == "" {
		return false
	}
	return seqNameRe.MatchString(name) || seqEdgeRe.MatchString(name)
}
