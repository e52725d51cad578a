package main

import (
	"go/token"
	"strings"
	"testing"

	"tcpstall/internal/lint"
)

// TestListGolden pins the -list output: all nine analyzers, in
// registration order, with their one-line contracts. A new analyzer
// or a doc rewrite must update this table deliberately.
func TestListGolden(t *testing.T) {
	const want = `seqsafe    flags raw uint32 sequence-number ordering/subtraction outside internal/seqspace
detclock   forbids wall-clock, global math/rand and map-order output in deterministic packages
lockcheck  verifies ` + "`// guarded by`" + ` field annotations against actual lock acquisitions
evpurity   flight observers must not mutate analyzer state; recorder-guarded code must not steer analysis
jsontags   serialized structs carry complete, snake_case, duplicate-free json tags
hotalloc   flags heap-allocating constructs in functions marked tapo:hotpath
lockorder  whole-program lock-acquisition graph must be acyclic (deadlock freedom)
goexit     every goroutine launch must have a provable termination path
wirefreeze wire structs and BENCH schemas must match the committed fingerprint snapshot
`
	var sb strings.Builder
	listAnalyzers(&sb)
	if got := sb.String(); got != want {
		t.Errorf("-list output drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestSelectAnalyzers covers the -only spec: defaults, subsets with
// whitespace, and the unknown-name error path.
func TestSelectAnalyzers(t *testing.T) {
	all, err := selectAnalyzers("")
	if err != nil || len(all) != len(lint.Analyzers) {
		t.Fatalf("empty spec: got %d analyzers, err %v", len(all), err)
	}
	sub, err := selectAnalyzers(" lockorder, goexit ")
	if err != nil || len(sub) != 2 || sub[0].Name != "lockorder" || sub[1].Name != "goexit" {
		t.Fatalf("subset spec: got %v, err %v", sub, err)
	}
	if _, err := selectAnalyzers("nosuch"); err == nil {
		t.Fatal("unknown analyzer did not error")
	}
}

// TestRenderJSON pins the -json wire shape CI's job summary is
// generated from.
func TestRenderJSON(t *testing.T) {
	var sb strings.Builder
	renderJSON(&sb, []lint.Diagnostic{{
		Analyzer: "goexit",
		Pos:      token.Position{Filename: "x.go", Line: 3, Column: 7},
		Message:  "leaky",
	}})
	want := `[
  {
    "file": "x.go",
    "line": 3,
    "col": 7,
    "analyzer": "goexit",
    "message": "leaky"
  }
]
`
	if got := sb.String(); got != want {
		t.Errorf("json shape drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	sb.Reset()
	renderJSON(&sb, nil)
	if got := sb.String(); got != "[]\n" {
		t.Errorf("empty findings: got %q, want %q", got, "[]\n")
	}
}

// TestRenderAllows: reasoned directives pass, reasonless ones are
// counted and marked.
func TestRenderAllows(t *testing.T) {
	var sb strings.Builder
	bad := renderAllows(&sb, []lint.Allow{
		{Pos: token.Position{Filename: "a.go", Line: 1}, Analyzer: "hotalloc", Reason: "cold path"},
		{Pos: token.Position{Filename: "b.go", Line: 2}, Analyzer: "goexit"},
	})
	if bad != 1 {
		t.Fatalf("bad count = %d, want 1", bad)
	}
	out := sb.String()
	if !strings.Contains(out, "cold path") || !strings.Contains(out, "(NO REASON)") {
		t.Errorf("unexpected audit output:\n%s", out)
	}
	if !strings.Contains(out, "2 directive(s), 1 without a reason") {
		t.Errorf("missing summary line:\n%s", out)
	}
}
