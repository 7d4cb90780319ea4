//go:build !race

package sql_test

import (
	"context"
	"testing"

	"yesquel/internal/sql"
)

// TestPointSelectAllocBudget holds the point path to what
// BenchmarkPointSelect measured when the read set became one per
// statement: a prepared primary-key SELECT on a warm handle — statement,
// transaction, one leaf read, client and server together — allocates at
// most 41 times. (The race detector allocates on its own account: this
// file is not built under -race.)
func TestPointSelectAllocBudget(t *testing.T) {
	_, db := loadBudgetDB(t)
	ctx := context.Background()
	stmt, err := db.Prepare("SELECT v FROM p WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		rows, err := stmt.Query(ctx, sql.Int(benchKey(i)))
		if err != nil {
			t.Fatal(err)
		}
		benchRows = rows
		i++
	})
	if allocs > 41 {
		t.Errorf("a point SELECT allocates %v times, budget 41", allocs)
	}
}
