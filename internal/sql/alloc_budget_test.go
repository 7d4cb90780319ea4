//go:build !race

package sql_test

import (
	"context"
	"testing"

	"yesquel/internal/sql"
)

// The budgets hold the read paths to what BenchmarkPointSelect and
// BenchmarkScan50 measured when read replies came to be built in their
// frame and decoded in place, and a scan's rows to decode without an
// allocation each: a prepared statement on a warm handle — statement,
// transaction, leaf reads, client and server together — allocates at
// most this many times. A change that removes an allocation lowers its
// budget. (The race detector allocates on its own account: this file is
// not built under -race.)
const (
	pointSelectAllocs = 36
	scan50Allocs      = 112
)

// TestPointSelectAllocBudget: a primary-key SELECT of one row.
func TestPointSelectAllocBudget(t *testing.T) {
	checkAllocBudget(t, "SELECT v FROM p WHERE id = ?", pointSelectAllocs)
}

// TestScanAllocBudget: a 50-row primary-key scan, whose rows share their
// backing arrays and whose cells are read from the reply frames in place;
// the one allocation left per row is its TEXT value's string.
func TestScanAllocBudget(t *testing.T) {
	checkAllocBudget(t, "SELECT id, v FROM p WHERE id >= ? LIMIT 50", scan50Allocs)
}

func checkAllocBudget(t *testing.T, query string, budget float64) {
	_, db := loadBudgetDB(t)
	ctx := context.Background()
	stmt, err := db.Prepare(query)
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
	t.Logf("%s: %v allocations", query, allocs)
	if allocs > budget {
		t.Errorf("%s allocates %v times, budget %v", query, allocs, budget)
	}
}
