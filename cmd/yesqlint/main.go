// Command yesqlint runs the repository's invariant analyzers (see
// internal/lint and its subpackages) over the given package patterns
// and exits non-zero if any finding survives the //yesqlint:allow
// suppressions.
//
// Usage:
//
//	go run ./cmd/yesqlint ./...
//	go run ./cmd/yesqlint ./internal/kv/... ./internal/rpc
//
// The suite enforces, mechanically, the replication stack's safety
// rules: no blocking under Store.repMu (repmublock), the
// repMu → txMu → epochMu acquisition order (lockorder), no
// error classification by string matching (errsentinel), and no
// per-iteration timer allocation (timerloop).
package main

import (
	"fmt"
	"os"

	"yesquel/internal/lint"
	"yesquel/internal/lint/analysis"
	"yesquel/internal/lint/errsentinel"
	"yesquel/internal/lint/lockorder"
	"yesquel/internal/lint/repmublock"
	"yesquel/internal/lint/timerloop"
)

// Suite is the full analyzer set, exported for the CLI test.
var suite = []*analysis.Analyzer{
	repmublock.Analyzer,
	lockorder.Analyzer,
	errsentinel.Analyzer,
	timerloop.Analyzer,
}

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := lint.Run(".", suite, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "yesqlint: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "yesqlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
