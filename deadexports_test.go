package tcpstall_test

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"

	"tcpstall/internal/lint"
)

// deadExportAllow lists the exported identifiers that may have no use
// in non-test code, each with the reason it stays exported. Keys are
// module-relative: "internal/pkg.Func" or "internal/pkg.Type.Method".
var deadExportAllow = map[string]string{
	"internal/packet.EncodeTCPv4":         "test helper: tapo and trace tests build TCP frames with it",
	"internal/packet.EncodeTCPv6":         "test helper: trace tests build IPv6 TCP frames with it",
	"internal/packet.VerifyChecksum":      "test helper: trace's sim_test.go checks exported TCP checksums with it",
	"internal/packet.IPv4.VerifyChecksum": "test helper: trace's sim_test.go checks exported IPv4 header checksums with it",
	"internal/packet.SACKBlocks":          "test helper: trace, tcpsim, triage, live and core tests build SACK options with it",
	"internal/pcap.NewWriter":             "test helper: tapo, tapod and trace tests write captures with it",
	"internal/netem.DropList":             "test helper: trace, tcpsim and core tests drop chosen packets with it",
	"internal/sim.Simulator.Run":          "test helper: simulator tests in several packages drain the event queue with it",
	"internal/tcpsim.NewCubic":            "test helper: the root bench_test.go compares congestion controls with it",
	"internal/experiments.BuildDataset":   "test helper: the root bench_test.go builds its datasets with it",
	"internal/lint/linttest.Run":          "test helper: the analyzer tests in internal/lint run through it",
	"internal/packet.IPv4DontFragment":    "protocol constant: names the IPv4 DF flag bit",
	"internal/packet.IPv4MoreFragments":   "protocol constant: names the IPv4 MF flag bit",
	"internal/pcap.LinkTypeNull":          "protocol constant: names the BSD loopback link type",
	"internal/core.DoubleNone":            "named zero value that DoubleKind.String renders as \"none\"",
}

// TestNoDeadExports requires every exported function, method, constant,
// variable and type of a non-main package to have a use in non-test
// code, or an entry with a reason in deadExportAllow. A method its type
// needs to implement an interface counts as used. The allow list cannot
// rot: an entry that no longer exists, or that gained a non-test use,
// fails too.
func TestNoDeadExports(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module; skipped in -short mode")
	}
	pkgs, err := lint.Load(".", "./...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	// lint.Load checks each package from source against export data for
	// its imports, so one identifier is a different types.Object in
	// every package that sees it: objects are keyed by name instead.
	defined := map[string]bool{}
	used := map[string]bool{}
	for _, p := range pkgs {
		if p.Types.Name() != "main" {
			for _, name := range p.Types.Scope().Names() {
				obj := p.Types.Scope().Lookup(name)
				if obj.Exported() {
					defined[objKey(obj)] = true
				}
				if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
					if named, ok := tn.Type().(*types.Named); ok {
						for i := range named.NumMethods() {
							if m := named.Method(i); m.Exported() {
								defined[objKey(m)] = true
							}
						}
					}
				}
			}
		}
		self := selfReferences(p)
		for id, obj := range p.Info.Uses {
			if obj.Pkg() != nil && !self[id] {
				used[objKey(obj)] = true
			}
		}
		markImplemented(p.Types, used)
	}

	for _, key := range sortedKeys(defined) {
		if !used[key] && deadExportAllow[key] == "" {
			t.Errorf("%s is exported but no non-test code uses it: delete it, unexport it, or allow-list it with a reason", key)
		}
	}
	for _, key := range sortedKeys(deadExportAllow) {
		switch {
		case !defined[key]:
			t.Errorf("allow-listed %s no longer exists: drop its entry", key)
		case used[key]:
			t.Errorf("allow-listed %s now has a non-test use: drop its entry", key)
		}
	}
}

// sortedKeys returns m's keys in ascending order, so findings print in
// a stable order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// objKey names obj by module-relative package path, receiver type (for
// a method) and name.
func objKey(obj types.Object) string {
	path := strings.TrimPrefix(obj.Pkg().Path(), "tcpstall/")
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return path + "." + named.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return path + "." + obj.Name()
}

// selfReferences returns the identifiers in p where a function or
// method refers to itself, as a recursive call does; such a use keeps
// nothing alive.
func selfReferences(p *lint.Package) map[*ast.Ident]bool {
	self := map[*ast.Ident]bool{}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn := p.Info.Defs[fd.Name]
			ast.Inspect(fd, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] == fn {
					self[id] = true
				}
				return true
			})
		}
	}
	return self
}

// markImplemented marks as used every method that lets a named type in
// pkg's view (its own scope and everything it imports) implement an
// interface in the same view. Checking within one view keeps the
// identical-type test meaningful across packages.
func markImplemented(pkg *types.Package, used map[string]bool) {
	var named []*types.Named
	var ifaces []*types.Interface
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		module := p == pkg || strings.HasPrefix(p.Path(), "tcpstall/")
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || tn.IsAlias() || n.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := n.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, iface)
			} else if module {
				named = append(named, n)
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	walk(pkg)
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, n := range named {
		ptr := types.NewPointer(n)
		for _, iface := range ifaces {
			if !types.Implements(ptr, iface) {
				continue
			}
			for i := range iface.NumMethods() {
				m := iface.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
				if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil {
					used[objKey(fn)] = true
				}
			}
		}
	}
}
