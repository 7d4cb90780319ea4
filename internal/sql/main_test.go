package sql_test

import (
	"testing"

	"yesquel/internal/leakcheck"
)

// TestMain fails the package if any test leaves a goroutine running: a
// statement's read rounds and the splits its commit makes must be over
// when it returns, and the clusters and clients the tests start must be
// torn down by the test that started them.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
