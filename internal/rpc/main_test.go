package rpc

import (
	"testing"

	"yesquel/internal/leakcheck"
)

// TestMain fails the package if a test leaves a goroutine running: a
// server's connection goroutines and the interrupts of cancelled calls
// must all be gone once the test that started them has closed its
// Server and Client.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
