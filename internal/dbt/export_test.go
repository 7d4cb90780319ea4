package dbt

import "testing"

// SetCacheMaxNodes caps every handle's inner-node cache at n entries
// until t ends.
func SetCacheMaxNodes(t testing.TB, n int) {
	old := cacheMaxNodes
	cacheMaxNodes = n
	t.Cleanup(func() { cacheMaxNodes = old })
}
