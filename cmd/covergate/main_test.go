package main

import (
	"strings"
	"testing"
)

// TestUnrunMergesBinaries: a block that two test binaries report counts
// once, and runs if either ran it.
func TestUnrunMergesBinaries(t *testing.T) {
	prof := `mode: set
yesquel/internal/a/a.go:1.1,3.2 2 0
yesquel/internal/a/a.go:4.1,6.2 3 0
yesquel/internal/b/b.go:1.1,2.2 1 1
mode: set
yesquel/internal/a/a.go:1.1,3.2 2 1
yesquel/internal/a/a.go:4.1,6.2 3 0
yesquel/internal/b/b.go:1.1,2.2 1 0
`
	got, err := unrunByPackage(strings.NewReader(prof))
	if err != nil {
		t.Fatal(err)
	}
	if c := got["yesquel/internal/a"]; c != (counts{unrun: 3, total: 5}) {
		t.Errorf("package a: %+v, want 3 of 5 unrun", c)
	}
	if c := got["yesquel/internal/b"]; c != (counts{unrun: 0, total: 1}) {
		t.Errorf("package b: %+v, want 0 of 1 unrun", c)
	}
	if _, err := unrunByPackage(strings.NewReader("a.go:1.1,2.2 x 0\n")); err == nil {
		t.Error("a malformed profile line was accepted")
	}
}

func TestReadBaseline(t *testing.T) {
	got, err := readBaseline(strings.NewReader("# comment\nyesquel/internal/a 3 # note\n\nyesquel/internal/b 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["yesquel/internal/a"] != 3 || got["yesquel/internal/b"] != 0 {
		t.Errorf("baseline %v", got)
	}
	if _, err := readBaseline(strings.NewReader("yesquel/internal/a\n")); err == nil {
		t.Error("a line without a count was accepted")
	}
}
