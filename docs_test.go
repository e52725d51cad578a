package tcpstall_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// checkedDocs are the documents whose code references must resolve.
var checkedDocs = []string{
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	".claude/skills/verify/SKILL.md",
}

var (
	docPathRE  = regexp.MustCompile(`\b(?:bench|cmd|internal)/[\w./-]*`)
	docNameRE  = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	docGoRunRE = regexp.MustCompile("go run \\./cmd/([\\w-]+)")
	// goTestPatternRE matches the end of text that makes the next name
	// a -run/-bench/-fuzz pattern rather than a declared name.
	goTestPatternRE = regexp.MustCompile(`-(?:run|bench|fuzz)[= ]['"]?$`)
)

// TestDocReferences keeps the docs honest about the code they cite.
// Every bench/…, cmd/… or internal/… path must exist; every Test…,
// Fuzz… or Benchmark… name must be declared in a _test.go file (a name
// written with a trailing * or as a -run/-bench/-fuzz argument must
// prefix one); and every -flag on a `go run ./cmd/<name>` command must be
// declared in that command's source.
func TestDocReferences(t *testing.T) {
	declared := declaredTestNames(t)
	flags := map[string]map[string]bool{}
	for _, doc := range checkedDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		lineOf := func(off int) int { return 1 + strings.Count(text[:off], "\n") }

		for _, loc := range docPathRE.FindAllStringIndex(text, -1) {
			if p := text[loc[0]:loc[1]]; !docPathExists(p) {
				t.Errorf("%s:%d: path %s does not exist", doc, lineOf(loc[0]), p)
			}
		}

		for _, loc := range docNameRE.FindAllStringIndex(text, -1) {
			name := text[loc[0]:loc[1]]
			next := byte(0)
			if loc[1] < len(text) {
				next = text[loc[1]]
			}
			switch {
			case next == '{':
				t.Errorf("%s:%d: write the brace form %s{…} out in full", doc, lineOf(loc[0]), name)
			case declared[name]:
			case next == '*' || goTestPatternRE.MatchString(text[:loc[0]]):
				if !prefixesAny(name, declared) {
					t.Errorf("%s:%d: pattern %s matches no declared test", doc, lineOf(loc[0]), name)
				}
			default:
				t.Errorf("%s:%d: %s is not declared in any _test.go file", doc, lineOf(loc[0]), name)
			}
		}

		for _, m := range docGoRunRE.FindAllStringSubmatchIndex(text, -1) {
			cmd := text[m[2]:m[3]]
			if _, done := flags[cmd]; !done {
				flags[cmd] = declaredFlags(t, filepath.Join("cmd", cmd))
			}
			if flags[cmd] == nil {
				continue
			}
			for _, f := range commandFlags(text, m[0], m[1]) {
				if !flags[cmd][f] {
					t.Errorf("%s:%d: go run ./cmd/%s passes -%s, which the command does not declare",
						doc, lineOf(m[0]), cmd, f)
				}
			}
		}
	}
}

// docPathExists resolves a path as written in prose: trailing
// punctuation and a /... package pattern are dropped, and a final
// pkg.Ident (internal/fleet.Snapshot) names the package directory.
func docPathExists(p string) bool {
	p = strings.TrimSuffix(p, "/...")
	p = strings.TrimRight(p, "./")
	if _, err := os.Stat(p); err == nil {
		return true
	}
	dir, base := filepath.Split(p)
	if i := strings.Index(base, "."); i > 0 {
		if st, err := os.Stat(dir + base[:i]); err == nil && st.IsDir() {
			return true
		}
	}
	return false
}

func prefixesAny(prefix string, names map[string]bool) bool {
	for n := range names {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}

// declaredTestNames collects every Test, Fuzz and Benchmark function
// declared in the module's _test.go files, build-tagged ones included.
func declaredTestNames(t *testing.T) map[string]bool {
	names := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				names[fd.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// flagCtors are the flag and FlagSet methods whose first string
// argument names a flag.
var flagCtors = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
}

// declaredFlags lists the flags a command's non-test sources declare,
// on the default set or any FlagSet (subcommands included).
func declaredFlags(t *testing.T, dir string) map[string]bool {
	if _, err := os.Stat(dir); err != nil {
		return nil // the path check reports the missing command
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	flags := map[string]bool{}
	for _, pkg := range pkgs {
		ast.Inspect(pkg, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !flagCtors[sel.Sel.Name] {
				return true
			}
			if _, ok := sel.X.(*ast.Ident); !ok {
				return true
			}
			for _, a := range call.Args[:min(2, len(call.Args))] {
				if lit, ok := a.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if name, err := strconv.Unquote(lit.Value); err == nil {
						flags[name] = true
					}
					break
				}
			}
			return true
		})
	}
	return flags
}

// commandFlags returns the -flag names of the command that starts at
// text[start:end] (the `go run ./cmd/<name>` part). The command ends at
// a pipe, a list operator, a redirect or a shell comment, at the
// closing backtick of an inline code span (which may wrap lines), and
// otherwise at the end of the line unless the line ends in a backslash.
func commandFlags(text string, start, end int) []string {
	lineStart := strings.LastIndexByte(text[:start], '\n') + 1
	inSpan := strings.Count(text[lineStart:start], "`")%2 == 1
	var b strings.Builder
	for i := end; i < len(text); i++ {
		c := text[i]
		if c == '`' || c == '|' || c == ';' || c == '&' || c == '>' || c == '#' {
			break
		}
		if c == '\n' {
			cont := inSpan && !strings.HasPrefix(text[i+1:], "\n")
			if !cont && !strings.HasSuffix(strings.TrimRight(b.String(), " "), "\\") {
				break
			}
		}
		b.WriteByte(c)
	}
	var out []string
	for _, tok := range strings.Fields(b.String()) {
		tok = strings.Trim(tok, "[](),")
		if len(tok) < 2 || tok[0] != '-' || !(tok[1] >= 'a' && tok[1] <= 'z' || tok[1] >= 'A' && tok[1] <= 'Z') {
			continue
		}
		name, _, _ := strings.Cut(tok[1:], "=")
		out = append(out, name)
	}
	return out
}
