//go:build !race

package dbt_test

import (
	"context"
	"testing"
)

// TestPointGetAllocBudget holds the point path to what BenchmarkGetCached
// measured when the read set became one per statement: a Get through a
// warm inner-node cache — its transaction, the descent and one windowed
// leaf read, client and server together — allocates at most 24 times.
// (The race detector allocates on its own account: this file is not
// built under -race.)
func TestPointGetAllocBudget(t *testing.T) {
	_, c, tree := loadBenchTree(t)
	ctx := context.Background()
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		v, err := tree.Get(ctx, c.Begin(), benchKey(i))
		if err != nil {
			t.Fatal(err)
		}
		benchValue = v
		i++
	})
	if allocs > 24 {
		t.Errorf("a warm Get allocates %v times, budget 24", allocs)
	}
}
