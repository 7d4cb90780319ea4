//go:build !race

package sql_test

import (
	"context"
	"testing"

	"yesquel/internal/sql"
)

// The budgets hold the read paths to what BenchmarkPointSelect,
// BenchmarkScan50 and BenchmarkJoin20 measured once a statement came to be
// planned once, before its first read (stmtPlan): a prepared statement on
// a warm handle — statement, transaction, leaf reads, client and server
// together — allocates at most this many times and this many bytes. A
// change that removes an allocation lowers its budget. (The race detector
// allocates on its own account: this file is not built under -race.)
const (
	pointSelectAllocs = 29
	pointSelectBytes  = 2048 // 2,003 measured
	scan50Allocs      = 52
	scan50Bytes       = 17100 // 17,002 measured
	join20Allocs      = 240
	join20Bytes       = 26300 // 26,178 measured
)

// TestPointSelectAllocBudget: a primary-key SELECT of one row.
func TestPointSelectAllocBudget(t *testing.T) {
	checkAllocBudget(t, "SELECT v FROM p WHERE id = ?", pointSelectAllocs, pointSelectBytes, keyArg)
}

// TestScanAllocBudget: a 50-row primary-key scan, whose rows share their
// backing arrays, whose values are read from the reply frames in place,
// and which are returned as the decoded rows themselves.
func TestScanAllocBudget(t *testing.T) {
	checkAllocBudget(t, "SELECT id, v FROM p WHERE id >= ? LIMIT 50", scan50Allocs, scan50Bytes, keyArg)
}

// TestJoinAllocBudget: a 20-row join, planned once however many rows its
// outer table yields.
func TestJoinAllocBudget(t *testing.T) {
	checkAllocBudget(t, join20, join20Allocs, join20Bytes, join20Args)
}

func checkAllocBudget(t *testing.T, query string, allocs, bytes int64, args func(i int) []sql.Value) {
	_, db := loadBudgetDB(t)
	ctx := context.Background()
	stmt, err := db.Prepare(query)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			rows, err := stmt.Query(ctx, args(i)...)
			if err != nil {
				b.Fatal(err)
			}
			benchRows = rows
			i++
		}
	})
	if res.N == 0 {
		t.Fatalf("%s: the measurement failed", query)
	}
	t.Logf("%s: %d allocations, %d bytes over %d runs", query, res.AllocsPerOp(), res.AllocedBytesPerOp(), res.N)
	if res.AllocsPerOp() > allocs {
		t.Errorf("%s allocates %d times, budget %d", query, res.AllocsPerOp(), allocs)
	}
	if res.AllocedBytesPerOp() > bytes {
		t.Errorf("%s allocates %d bytes, budget %d", query, res.AllocedBytesPerOp(), bytes)
	}
}
