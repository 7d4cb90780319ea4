package kvserver

import (
	"testing"

	"yesquel/internal/leakcheck"
)

// TestMain fails the package if any test leaves a goroutine running:
// every server, store, and sync loop started by a test must be torn
// down by that test. No allowances — the package's goroutines (mirror
// senders, sweeper, checkpoint ticker) all terminate on Close/Detach,
// and a survivor is a real bug.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
