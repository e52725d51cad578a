package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"tcpstall/internal/lint"
	"tcpstall/internal/lint/linttest"
)

// TestWirefreeze drives the full freeze workflow against a seeded
// protocol package: -update-wirefreeze freezes ok/, ok/ then checks
// clean (false-positive guard), embed/ moves fields into untagged
// embedded structs and still checks clean (encoding/json inlines
// them), bad/ drifts a retag inside an embedded struct, a field rename
// and a new struct without a version bump, and vbump/ bumps the
// version without regenerating. The real repo snapshot is exercised
// by TestRepoClean.
func TestWirefreeze(t *testing.T) {
	oldRoots, oldSnap, oldUpd := lint.WirefreezeRoots, lint.WirefreezeSnapshot, lint.WirefreezeUpdate
	defer func() {
		lint.WirefreezeRoots, lint.WirefreezeSnapshot, lint.WirefreezeUpdate = oldRoots, oldSnap, oldUpd
	}()
	lint.WirefreezeRoots = []lint.WireRoot{{Pkg: "tcpstall/internal/fleet", Type: "Snapshot"}}
	snap := filepath.Join(t.TempDir(), "wire.json")
	lint.WirefreezeSnapshot = snap

	lint.WirefreezeUpdate = true
	linttest.Run(t, lint.Wirefreeze, "testdata/wirefreeze/ok", "tcpstall/internal/fleet")
	lint.WirefreezeUpdate = false
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("update mode did not write the snapshot: %v", err)
	}

	t.Run("clean", func(t *testing.T) {
		linttest.Run(t, lint.Wirefreeze, "testdata/wirefreeze/ok", "tcpstall/internal/fleet")
	})
	t.Run("embedded-clean", func(t *testing.T) {
		linttest.Run(t, lint.Wirefreeze, "testdata/wirefreeze/embed", "tcpstall/internal/fleet")
	})
	t.Run("drift", func(t *testing.T) {
		linttest.Run(t, lint.Wirefreeze, "testdata/wirefreeze/bad", "tcpstall/internal/fleet")
	})
	t.Run("version-bump-without-regen", func(t *testing.T) {
		linttest.Run(t, lint.Wirefreeze, "testdata/wirefreeze/vbump", "tcpstall/internal/fleet")
	})
}

// TestWirefreezeMissingSnapshot: with no committed snapshot the
// analyzer demands one rather than passing vacuously.
func TestWirefreezeMissingSnapshot(t *testing.T) {
	oldRoots, oldSnap := lint.WirefreezeRoots, lint.WirefreezeSnapshot
	defer func() { lint.WirefreezeRoots, lint.WirefreezeSnapshot = oldRoots, oldSnap }()
	lint.WirefreezeRoots = []lint.WireRoot{{Pkg: "tcpstall/internal/fleet", Type: "Snapshot"}}
	lint.WirefreezeSnapshot = filepath.Join(t.TempDir(), "absent.json")

	pkg, err := lint.LoadDir("testdata/wirefreeze/ok", "tcpstall/internal/fleet")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{lint.Wirefreeze})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("want exactly one missing-snapshot finding, got %v", diags)
	}
}
