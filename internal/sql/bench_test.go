package sql_test

import (
	"context"
	"testing"

	"yesquel/internal/sql"
)

// Layer micro-benches for the SQL layer: one prepared statement per
// shape against the two-server in-process cluster of loadBudgetDB
// (default dbt.Config, warm inner-node cache). Beside time and allocs
// each reports reads/op — reads the servers observed per statement —
// which is the number a change to an access path moves first.
//
//	go test ./internal/sql -run '^$' -bench . -benchtime 2000x

var benchRows *sql.Rows // keeps the measured call's result alive

func benchStatement(b *testing.B, query string, args func(i int) []sql.Value) {
	cl, db := loadBudgetDB(b)
	ctx := context.Background()
	stmt, err := db.Prepare(query)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	before := cl.Stats().Reads
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := stmt.Query(ctx, args(i)...)
		if err != nil {
			b.Fatal(err)
		}
		benchRows = rows
	}
	b.StopTimer()
	b.ReportMetric(float64(cl.Stats().Reads-before)/float64(b.N), "reads/op")
}

// benchKey spreads successive iterations over the loaded rows.
func benchKey(i int) int64 { return int64(i*7919) % budgetRows }

func BenchmarkPointSelect(b *testing.B) {
	benchStatement(b, "SELECT v FROM p WHERE id = ?", func(i int) []sql.Value {
		return []sql.Value{sql.Int(benchKey(i))}
	})
}

func BenchmarkPKUpdate(b *testing.B) {
	benchStatement(b, "UPDATE t SET v = ? WHERE id = ?", func(i int) []sql.Value {
		return []sql.Value{sql.Text("updated"), sql.Int(benchKey(i))}
	})
}

func BenchmarkUniqueIndexLookup(b *testing.B) {
	benchStatement(b, "SELECT v FROM t WHERE u = ?", func(i int) []sql.Value {
		return []sql.Value{sql.Int(benchKey(i) + 1000000)}
	})
}

func BenchmarkScan50(b *testing.B) {
	benchStatement(b, "SELECT id, v FROM p WHERE id >= ? LIMIT 50", func(i int) []sql.Value {
		return []sql.Value{sql.Int(benchKey(i))}
	})
}
