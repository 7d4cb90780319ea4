// Command yesqlint runs the repository's invariant analyzers (see
// internal/lint and its subpackages) over the given package patterns
// and exits non-zero if any finding is reported.
//
// Usage:
//
//	go run ./cmd/yesqlint ./...
//	go run ./cmd/yesqlint ./internal/kv/... ./internal/rpc
//
// The suite holds only rules whose breach the tests do not catch: no
// error classification by string matching (errsentinel), and no
// per-iteration timer allocation (timerloop). That the commit path
// never waits for replication under Store.repMu is pinned by
// cluster.TestGroupCommitAmortizesMirrorAndFsync instead: a wait under
// the lock turns every record into a batch of its own. So is the
// Store's lock order: each inversion that can be written among its
// mutexes hangs tier-1 (see the kvserver package doc).
package main

import (
	"fmt"
	"os"

	"yesquel/internal/lint"
	"yesquel/internal/lint/analysis"
	"yesquel/internal/lint/errsentinel"
	"yesquel/internal/lint/timerloop"
)

// suite is the full analyzer set.
var suite = []*analysis.Analyzer{
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
