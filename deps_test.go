package tcpstall_test

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// simulatorFree are the packages that analyse captured traffic and
// must build without the simulator: the record format lives in
// internal/trace, and the simulator converts to it, never the reverse.
var simulatorFree = []string{
	"internal/trace",
	"internal/flight",
	"internal/core",
	"internal/triage",
	"internal/live",
	"internal/fleet",
	"internal/explain",
	"internal/promtext",
	"cmd/tapo",
	"cmd/tapoctl",
	"cmd/tapod",
}

// simulatorPkgs are the simulator and the packages built on it.
var simulatorPkgs = []string{
	"internal/tcpsim",
	"internal/netem",
	"internal/workload",
	"internal/groundtruth",
	"internal/mitigation",
}

// goList runs `go list` with args in the module root and returns its
// output lines.
func goList(t *testing.T, args ...string) []string {
	t.Helper()
	out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			t.Fatalf("go list %v: %v\n%s", args, err, ee.Stderr)
		}
		t.Fatalf("go list %v: %v", args, err)
	}
	return strings.Fields(string(out))
}

// TestDependencyDirection pins the import edge between the analysis
// and the simulator: no simulator-free package depends on a simulator
// package, and internal/tcpsim imports internal/trace.
func TestDependencyDirection(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list; skipped in -short mode")
	}
	const mod = "tcpstall/"
	for _, pkg := range simulatorFree {
		for _, dep := range goList(t, "-deps", "./"+pkg) {
			if slices.Contains(simulatorPkgs, strings.TrimPrefix(dep, mod)) {
				t.Errorf("%s depends on %s", pkg, dep)
			}
		}
	}
	if imports := goList(t, "-f", `{{join .Imports " "}}`, "./internal/tcpsim"); !slices.Contains(imports, mod+"internal/trace") {
		t.Errorf("internal/tcpsim does not import internal/trace (imports %v)", imports)
	}
}
