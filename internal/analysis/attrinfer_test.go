package analysis

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update regenerates the fixer golden files (testdata/src/inferbad and
// testdata/src/dupsite) from the fixes attrinfer currently plans. Inspect the diff before committing.
var updateGolden = flag.Bool("update", false, "rewrite attrinfer golden files")

func TestAttrInfer(t *testing.T) {
	runFixture(t, AttrInfer, "inferbad")
	runFixture(t, AttrInfer, "infergood")
	runFixture(t, AttrInfer, "inferunknown")
	runFixture(t, AttrInfer, "dupsite")
}

// TestAttrInferFixGolden is the end-to-end contract of the -fix pipeline:
// the fixes planned for the inferbad fixture must produce exactly the
// golden file, the fixed source must still type-check, and a second
// attrinfer pass over it must find nothing (idempotency).
func TestAttrInferFixGolden(t *testing.T) {
	checkFixGolden(t, "inferbad", []*Analyzer{AttrInfer})
}

// TestAttrInferFixSharedSite is the same contract for two CreateAtom calls
// that share one site string with different declared literals: the one
// finding's fix rewrites both sites without conflicting edits, and the
// fixed package is clean under every xmem-vet analyzer.
func TestAttrInferFixSharedSite(t *testing.T) {
	checkFixGolden(t, "dupsite", All())
}

// checkFixGolden plans attrinfer's fixes for testdata/src/<name>/<name>.go
// in a scratch copy, compares the fixed file with <name>.go.golden, then
// applies the fixes and requires the result to type-check and draw no
// finding from the given analyzers. -update rewrites the golden file.
func checkFixGolden(t *testing.T, name string, after []*Analyzer) {
	t.Helper()
	fixtureDir := filepath.Join("testdata", "src", name)
	src, err := os.ReadFile(filepath.Join(fixtureDir, name+".go"))
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	tmpFile := filepath.Join(tmp, name+".go")
	if err := os.WriteFile(tmpFile, src, 0o644); err != nil {
		t.Fatal(err)
	}

	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(tmp, "fixture/"+name)
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(loader.Fset, []*Package{pkg}, []*Analyzer{AttrInfer})
	if len(findings) == 0 {
		t.Fatalf("attrinfer found nothing on the %s fixture", name)
	}
	for _, f := range findings {
		if len(f.SuggestedFixes) == 0 {
			t.Errorf("finding without suggested fix: %s", f)
		}
	}

	plan, err := PlanFixes(findings)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Unfixable != 0 {
		t.Fatalf("plan left %d finding(s) unfixable", plan.Unfixable)
	}
	got, ok := plan.Files[tmpFile]
	if !ok {
		t.Fatalf("plan edits files %v, want %s", keysOf(plan.Files), tmpFile)
	}

	goldenPath := filepath.Join(fixtureDir, name+".go.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run `go test -run %s -update` to create it)", err, t.Name())
	}
	if !bytes.Equal(got, want) {
		t.Errorf("fixed fixture differs from golden:\n--- got\n%s\n--- want\n%s", got, want)
	}

	// Apply for real and prove the result loads clean: fixes are idempotent.
	if err := plan.WriteFixes(); err != nil {
		t.Fatal(err)
	}
	loader2, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	fixedPkg, err := loader2.LoadDir(tmp, "fixture/"+name+"fixed")
	if err != nil {
		t.Fatalf("fixed source does not type-check: %v", err)
	}
	for _, f := range Run(loader2.Fset, []*Package{fixedPkg}, after) {
		t.Errorf("finding after fix applied: %s", f)
	}
}

func keysOf(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestByNamesUnknown pins the -run error contract: an unknown analyzer
// name fails loudly and the message lists what is available, so a typo'd
// CI invocation can never silently run nothing.
func TestByNamesUnknown(t *testing.T) {
	if _, err := ByNames("nosuchthing"); err == nil {
		t.Fatal("ByNames(nosuchthing) succeeded, want error")
	} else {
		msg := err.Error()
		if !strings.Contains(msg, "nosuchthing") || !strings.Contains(msg, "have:") {
			t.Errorf("error %q does not name the unknown analyzer and the available set", msg)
		}
		for _, a := range All() {
			if !strings.Contains(msg, a.Name) {
				t.Errorf("error %q omits registered analyzer %s", msg, a.Name)
			}
		}
	}
	if _, err := ByNames("attrinfer,bogus"); err == nil {
		t.Error("ByNames with one bad name among good ones succeeded, want error")
	}
	got, err := ByNames("attrtruth,attrinfer")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("ByNames returned %d analyzers, want 2", len(got))
	}
}
