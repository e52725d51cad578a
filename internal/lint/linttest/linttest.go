// Package linttest runs lint analyzers against seeded testdata
// packages, in the style of golang.org/x/tools/go/analysis/analysistest
// but stdlib-only. A testdata package marks each expected finding
// with a comment on the offending line:
//
//	seq < ack // want `wraps at 2\^32`
//
// Each backquoted chunk is a regexp that must match exactly one
// finding on that line; findings with no matching want, and wants
// with no matching finding, fail the test. Lines without a want
// comment are false-positive guards: any finding there fails too.
package linttest

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"tcpstall/internal/lint"
)

var wantRe = regexp.MustCompile("`([^`]*)`")

// Run loads the testdata package in dir as if it lived at asPath
// (path-sensitive analyzers key on the import path) and checks the
// analyzer's findings against the package's want comments.
func Run(t *testing.T, a *lint.Analyzer, dir, asPath string) {
	t.Helper()
	problems, err := Check(a, dir, asPath)
	if err != nil {
		t.Fatalf("%s on %s: %v", a.Name, dir, err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// Check is the harness core, split from Run so its own error paths
// are testable: a fatal error (unloadable testdata, malformed want
// comment) comes back as err, expectation mismatches as problems.
func Check(a *lint.Analyzer, dir, asPath string) (problems []string, err error) {
	pkg, err := lint.LoadDir(dir, asPath)
	if err != nil {
		return nil, fmt.Errorf("loading testdata: %w", err)
	}
	diags, err := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{a})
	if err != nil {
		return nil, fmt.Errorf("running analyzer: %w", err)
	}

	type want struct {
		re   *regexp.Regexp
		line int
		file string
		hit  bool
	}
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				ms := wantRe.FindAllStringSubmatch(text, -1)
				if len(ms) == 0 {
					return nil, fmt.Errorf("%s: want comment carries no `regexp`", pos)
				}
				for _, m := range ms {
					re, err := regexp.Compile(m[1])
					if err != nil {
						return nil, fmt.Errorf("%s: bad want regexp %q: %v", pos, m[1], err)
					}
					wants = append(wants, &want{re: re, line: pos.Line, file: pos.Filename})
				}
			}
		}
	}

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.hit || !w.re.MatchString(d.Message) || w.line != d.Pos.Line || w.file != d.Pos.Filename {
				continue
			}
			w.hit = true
			matched = true
			break
		}
		if !matched {
			problems = append(problems, fmt.Sprintf("unexpected finding: %s", d))
		}
	}
	for _, w := range wants {
		if !w.hit {
			problems = append(problems, fmt.Sprintf("%s:%d wanted a finding matching %q, got none", w.file, w.line, w.re))
		}
	}
	return problems, nil
}
