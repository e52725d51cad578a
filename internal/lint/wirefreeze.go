package lint

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
)

// Wirefreeze pins the fleet wire protocol to a committed snapshot.
// Every struct reachable from the roots — fleet.Snapshot and the
// register/push/events/timeseries wire types — is
// fingerprinted (field names, fully-qualified field types, json
// tags; order-insensitive hash) and compared against
// internal/lint/testdata/wirefreeze/wire.json, which also records
// the WireVersion the snapshot was taken at.
//
// Renaming a field, changing its type, or touching its json tag
// changes the hash, and the analyzer fails until the change is made
// deliberate: bump WireVersion in internal/fleet/wire.go and
// regenerate with `go run ./cmd/tapolint -update-wirefreeze ./...`.
// Bumping the version without regenerating (or vice versa) is also a
// finding, so protocol drift between mixed-version tapods is a
// compile-time event, not a 3 a.m. aggregation mystery. Update mode
// holds to the same rule: it refuses to re-freeze a changed wire under
// the WireVersion the existing snapshot was taken at, reports the drift
// instead, and leaves the file as it was.
//
// The check runs only when every root package is loaded (a partial
// `tapolint ./internal/core/...` run has nothing to compare); the
// update flag likewise requires the full program so it can never
// commit a partial snapshot.
var Wirefreeze = &Analyzer{
	Name:       "wirefreeze",
	Doc:        "fleet wire structs must match the committed fingerprint snapshot",
	RunProgram: runWirefreeze,
}

// WireRoot names one struct whose reachable closure is frozen.
type WireRoot struct{ Pkg, Type string }

// Wirefreeze seams, settable by cmd/tapolint and tests: the root set,
// the snapshot location (empty means
// <module>/internal/lint/testdata/wirefreeze/wire.json), and whether
// this run regenerates the snapshot instead of checking it.
var (
	WirefreezeRoots = []WireRoot{
		{modulePkg("internal/fleet"), "Snapshot"},
		{modulePkg("internal/fleet"), "RegisterRequest"},
		{modulePkg("internal/fleet"), "RegisterResponse"},
		{modulePkg("internal/fleet"), "PushResponse"},
		{modulePkg("internal/fleet"), "Event"},
		{modulePkg("internal/fleet"), "EventsResponse"},
		{modulePkg("internal/fleet"), "SeriesResponse"},
	}
	WirefreezeSnapshot string
	WirefreezeUpdate   bool
)

// wireVersionPkg is the package whose WireVersion constant gates the
// protocol; kept separate from the roots so testdata loaded under an
// assumed path resolves its own constant.
var wireVersionPkg = modulePkg("internal/fleet")

// wireSnapshot is the committed file format.
type wireSnapshot struct {
	WireVersion int64             `json:"wire_version"`
	Types       map[string]string `json:"types"`
}

func runWirefreeze(pp *ProgramPass) error {
	byPath := map[string]*Package{}
	for _, p := range pp.Pkgs {
		byPath[p.Path] = p
	}
	for _, r := range WirefreezeRoots {
		if byPath[r.Pkg] == nil {
			return nil // partial load: nothing trustworthy to compare
		}
	}
	fleetPkg := byPath[wireVersionPkg]
	version, versionPos, ok := wireVersionOf(fleetPkg)
	if !ok {
		pp.Reportf(fleetPkg, fleetPkg.Files[0].Pos(),
			"package %s declares no integer WireVersion constant; the wire protocol must be versioned", wireVersionPkg)
		return nil
	}

	hashes := map[string]string{}
	decls := map[string]struct {
		pkg *Package
		pos token.Pos
	}{}
	for _, r := range WirefreezeRoots {
		pkg := byPath[r.Pkg]
		obj := pkg.Types.Scope().Lookup(r.Type)
		if obj == nil {
			pp.Reportf(pkg, pkg.Files[0].Pos(), "wirefreeze root %s.%s does not exist", r.Pkg, r.Type)
			continue
		}
		collectWireTypes(obj.Type(), hashes)
	}
	// Anchor findings at declarations where the source is loaded.
	for _, pkg := range pp.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					key := wireKey(pkg.Path, ts.Name.Name)
					if _, tracked := hashes[key]; tracked {
						decls[key] = struct {
							pkg *Package
							pos token.Pos
						}{pkg, ts.Name.Pos()}
					}
				}
			}
		}
	}

	snapPath := WirefreezeSnapshot
	if snapPath == "" {
		root := moduleRoot(pp.Pkgs)
		if root == "" {
			return fmt.Errorf("wirefreeze: cannot resolve module root for snapshot path")
		}
		snapPath = filepath.Join(root, "internal", "lint", "testdata", "wirefreeze", "wire.json")
	}

	var snap wireSnapshot
	raw, err := os.ReadFile(snapPath)
	committed := err == nil
	if committed {
		if err := json.Unmarshal(raw, &snap); err != nil {
			return fmt.Errorf("wirefreeze: parsing %s: %w", snapPath, err)
		}
	}
	// Update mode writes unless that would re-freeze a drifted wire at
	// the snapshot's own version; then it falls through to the check,
	// whose drift findings demand the bump.
	if WirefreezeUpdate && (!committed || version != snap.WireVersion || maps.Equal(hashes, snap.Types)) {
		return writeWireSnapshot(snapPath, wireSnapshot{WireVersion: version, Types: hashes})
	}
	if !committed {
		pp.Reportf(fleetPkg, versionPos,
			"no wirefreeze snapshot at %s; commit one with `go run ./cmd/tapolint -update-wirefreeze ./...`", snapPath)
		return nil
	}

	reportAt := func(key, format string, args ...any) {
		if d, ok := decls[key]; ok {
			pp.Reportf(d.pkg, d.pos, format, args...)
		} else {
			pp.Reportf(fleetPkg, versionPos, format, args...)
		}
	}
	drift := false
	for _, key := range sortedKeys(hashes) {
		want, known := snap.Types[key]
		switch {
		case !known:
			drift = true
			reportAt(key, "wire struct %s is new (or renamed) and not in the wirefreeze snapshot; bump WireVersion and regenerate with -update-wirefreeze", key)
		case want != hashes[key]:
			drift = true
			reportAt(key, "wire struct %s changed (fingerprint %s, snapshot %s) without regenerating the wirefreeze snapshot; bump WireVersion and run -update-wirefreeze", key, hashes[key], want)
		}
	}
	for _, key := range sortedKeys(snap.Types) {
		if _, still := hashes[key]; !still {
			drift = true
			reportAt(key, "wire struct %s was removed from the wire surface but is still in the wirefreeze snapshot; bump WireVersion and regenerate with -update-wirefreeze", key)
		}
	}
	if drift && version != snap.WireVersion {
		// The version was bumped but the snapshot is stale: the drift
		// findings above already demand regeneration. Without a bump
		// the same findings demand both — either way the fix is
		// explicit. Nothing extra to report here.
		return nil
	}
	if !drift && version != snap.WireVersion {
		pp.Reportf(fleetPkg, versionPos,
			"WireVersion is %d but the wirefreeze snapshot was taken at %d; regenerate with -update-wirefreeze", version, snap.WireVersion)
	}
	return nil
}

// wireVersionOf resolves the WireVersion constant and its position.
func wireVersionOf(pkg *Package) (int64, token.Pos, bool) {
	obj := pkg.Types.Scope().Lookup("WireVersion")
	c, ok := obj.(*types.Const)
	if !ok {
		return 0, token.NoPos, false
	}
	v, ok := constant.Int64Val(constant.ToInt(c.Val()))
	if !ok {
		return 0, token.NoPos, false
	}
	return v, obj.Pos(), true
}

// collectWireTypes walks the type graph from one root, fingerprinting
// every named module struct it reaches. Export data preserves struct
// tags, so reachable types in packages loaded only as dependencies
// fingerprint identically to source-loaded ones.
func collectWireTypes(t types.Type, hashes map[string]string) {
	switch x := types.Unalias(t).(type) {
	case *types.Pointer:
		collectWireTypes(x.Elem(), hashes)
	case *types.Slice:
		collectWireTypes(x.Elem(), hashes)
	case *types.Array:
		collectWireTypes(x.Elem(), hashes)
	case *types.Map:
		collectWireTypes(x.Key(), hashes)
		collectWireTypes(x.Elem(), hashes)
	case *types.Named:
		obj := x.Obj()
		if obj.Pkg() == nil || !pkgIs(obj.Pkg().Path(), "tcpstall") {
			return
		}
		key := wireKey(obj.Pkg().Path(), obj.Name())
		if _, done := hashes[key]; done {
			return
		}
		st, ok := x.Underlying().(*types.Struct)
		if !ok {
			hashes[key] = fingerprintLines([]string{types.TypeString(x.Underlying(), wireQualifier)})
			return
		}
		hashes[key] = "" // cycle guard while the fields are walked
		hashes[key] = fingerprintLines(wireFields(st, hashes))
	}
}

// wireFields lists a struct's fields as encoding/json puts them on the
// wire, collecting the wire types they reach. An untagged embedded
// struct (or pointer to one) is inlined: its fields are the outer
// struct's, and it is no wire type of its own. A tagged embedded
// struct is one nested field like any other.
func wireFields(st *types.Struct, hashes map[string]string) []string {
	var lines []string
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if inner := inlinedStruct(f, st.Tag(i)); inner != nil {
			lines = append(lines, wireFields(inner, hashes)...)
			continue
		}
		lines = append(lines, f.Name()+"|"+types.TypeString(f.Type(), wireQualifier)+"|"+st.Tag(i))
		collectWireTypes(f.Type(), hashes)
	}
	return lines
}

// inlinedStruct returns the struct an embedded field inlines, or nil.
func inlinedStruct(f *types.Var, tag string) *types.Struct {
	name, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ",")
	if !f.Embedded() || name != "" {
		return nil
	}
	t := f.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

// wireKey names a type module-relatively, so a testdata package
// loaded under an assumed module path produces comparable keys.
func wireKey(pkgPath, name string) string {
	return strings.TrimPrefix(strings.TrimPrefix(pkgPath, "tcpstall"), "/") + "." + name
}

func wireQualifier(p *types.Package) string { return p.Path() }

// fingerprintLines hashes the sorted field lines: reordering fields
// is not drift, renaming or retyping them is.
func fingerprintLines(lines []string) string {
	sorted := append([]string(nil), lines...)
	sort.Strings(sorted)
	sum := sha256.Sum256([]byte(strings.Join(sorted, "\n")))
	return fmt.Sprintf("%x", sum[:8])
}

func writeWireSnapshot(path string, snap wireSnapshot) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
