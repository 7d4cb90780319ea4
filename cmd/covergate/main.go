// Command covergate is the tier-1 coverage ratchet. It reads a
// coverage profile written by
//
//	go test -coverpkg=./internal/... -skip 'AllocBudget|CodecAllocations' -coverprofile=cover.out ./...
//
// merges the blocks that each test binary reported (a statement runs if
// any binary ran it), prints the unrun statements of every package, and
// exits non-zero if a package named in the baseline file has more unrun
// statements than the baseline allows:
//
//	go run ./cmd/covergate -baseline cmd/covergate/baseline.txt cover.out
//
// The baseline holds one "package unrun" pair a line; '#' starts a
// comment. A change that lowers a package's count lowers its line too.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
)

func main() {
	baseline := flag.String("baseline", "cmd/covergate/baseline.txt", "file of allowed unrun statements per package")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: covergate [-baseline file] cover.out")
		os.Exit(2)
	}
	prof, err := os.Open(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	defer prof.Close()
	pkgs, err := unrunByPackage(prof)
	if err != nil {
		fail(err)
	}
	base, err := os.Open(*baseline)
	if err != nil {
		fail(err)
	}
	defer base.Close()
	allowed, err := readBaseline(base)
	if err != nil {
		fail(err)
	}
	names := make([]string, 0, len(pkgs))
	for name := range pkgs {
		names = append(names, name)
	}
	sort.Strings(names)
	over := 0
	for _, name := range names {
		c := pkgs[name]
		line := fmt.Sprintf("%-40s %5d of %5d statements unrun", name, c.unrun, c.total)
		if limit, ok := allowed[name]; ok {
			line += fmt.Sprintf(" (baseline %d)", limit)
			if c.unrun > limit {
				line += " OVER"
				over++
			}
		}
		fmt.Println(line)
	}
	for name := range allowed {
		if _, ok := pkgs[name]; !ok {
			fmt.Printf("%s: in the baseline, not in the profile\n", name)
			over++
		}
	}
	if over > 0 {
		fmt.Fprintf(os.Stderr, "covergate: %d package(s) over the baseline in %s\n", over, *baseline)
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "covergate:", err)
	os.Exit(2)
}

// counts is one package's statement tally.
type counts struct{ unrun, total int }

// unrunByPackage merges a coverage profile's blocks — the same block
// appears once per test binary that was built with it — and tallies,
// per package, the statements and the statements no binary ran.
func unrunByPackage(r io.Reader) (map[string]counts, error) {
	type block struct {
		stmts int
		ran   bool
	}
	blocks := make(map[string]*block)
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "mode:") {
			continue
		}
		// file.go:l0.c0,l1.c1 statements count
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("profile line %d: %q", n, line)
		}
		stmts, err1 := strconv.Atoi(f[1])
		count, err2 := strconv.Atoi(f[2])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("profile line %d: %q", n, line)
		}
		b := blocks[f[0]]
		if b == nil {
			b = &block{stmts: stmts}
			blocks[f[0]] = b
		}
		b.ran = b.ran || count > 0
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	pkgs := make(map[string]counts)
	for pos, b := range blocks {
		file, _, _ := strings.Cut(pos, ":")
		pkg := path.Dir(file)
		c := pkgs[pkg]
		c.total += b.stmts
		if !b.ran {
			c.unrun += b.stmts
		}
		pkgs[pkg] = c
	}
	return pkgs, nil
}

// readBaseline parses "package unrun" lines.
func readBaseline(r io.Reader) (map[string]int, error) {
	allowed := make(map[string]int)
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line, _, _ := strings.Cut(sc.Text(), "#")
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		limit, err := strconv.Atoi(f[len(f)-1])
		if len(f) != 2 || err != nil {
			return nil, fmt.Errorf("baseline line %d: %q, want \"package unrun\"", n, sc.Text())
		}
		allowed[f[0]] = limit
	}
	return allowed, sc.Err()
}
