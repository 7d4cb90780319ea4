package main

import (
	"os/exec"
	"strings"
	"testing"

	"yesquel/internal/lint"
)

// The package under testdata/ is invisible to ./... wildcards but is a
// valid module package when named explicitly — the suite must flag its
// planted violations.
const brokenPkg = "yesquel/cmd/yesqlint/testdata/src/broken"

func TestSuiteFlagsInjectedViolations(t *testing.T) {
	findings, err := lint.Run(".", suite, brokenPkg)
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	byAnalyzer := map[string]int{}
	for _, f := range findings {
		byAnalyzer[f.Analyzer]++
	}
	for _, a := range suite {
		if byAnalyzer[a.Name] == 0 {
			t.Errorf("planted %s violation not flagged; findings: %v", a.Name, findings)
		}
	}
}

// TestCLIExitsNonZero pins the contract CI relies on: the yesqlint
// binary itself exits 1 when findings survive.
func TestCLIExitsNonZero(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI via go run")
	}
	cmd := exec.Command("go", "run", ".", brokenPkg)
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("go run on a broken package: err = %v (output %q), want exit error", err, out)
	}
	if code := ee.ExitCode(); code != 1 {
		t.Fatalf("exit code = %d, want 1; output:\n%s", code, out)
	}
	for _, a := range suite {
		if !strings.Contains(string(out), ": "+a.Name+": ") {
			t.Errorf("output missing a %s finding:\n%s", a.Name, out)
		}
	}
}
