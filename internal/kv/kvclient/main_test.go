package kvclient_test

import (
	"testing"

	"yesquel/internal/leakcheck"
)

// TestMain fails the package if any test leaves a goroutine running:
// client heartbeats, directory fetches, and the servers the tests spin up
// must all be torn down by the test that started them.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
