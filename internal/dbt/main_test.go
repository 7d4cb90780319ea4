package dbt_test

import (
	"testing"

	"yesquel/internal/leakcheck"
)

// TestMain fails the package if any test leaves a goroutine running: a
// tree handle owns none — its writers split what they grow — so the
// clusters, clients and background writers the tests start must be torn
// down by the test that started them.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
