//go:build !race

package dbt_test

import (
	"context"
	"testing"

	"yesquel/internal/dbt"
)

// pointGetAllocs holds the point path to what BenchmarkGetCached measured
// when a read-only transaction came to allocate no write index: a Get
// through a warm inner-node cache — its transaction, the descent and one
// windowed leaf read, client and server together — allocates at most this
// many times. (The race detector allocates on its own account: this file
// is not built under -race.)
const pointGetAllocs = 18

func TestPointGetAllocBudget(t *testing.T) {
	_, c, tree := loadBenchTree(t, dbt.Config{})
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
	t.Logf("a warm Get: %v allocations", allocs)
	if allocs > pointGetAllocs {
		t.Errorf("a warm Get allocates %v times, budget %v", allocs, pointGetAllocs)
	}
}
