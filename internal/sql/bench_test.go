package sql_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"yesquel/internal/sql"
)

// Layer micro-benches for the SQL layer: one prepared statement per
// shape against the two-server in-process cluster of loadBudgetDB
// (default dbt.Config, warm inner-node cache). Beside time and allocs
// each reports reads/op — reads the servers observed per statement,
// which is the number a change to an access path moves first — and
// rounds/op, the read rounds the client made to get them: what the
// statement waited for.
//
//	go test ./internal/sql -run '^$' -bench . -benchtime 2000x

var benchRows *sql.Rows // keeps the measured call's result alive

// benchStatement times query over args(0), args(1), …, after running it
// untimed over the first warm of them.
func benchStatement(b *testing.B, query string, warm int, args func(i int) []sql.Value) {
	cl, db := loadBudgetDB(b)
	ctx := context.Background()
	stmt, err := db.Prepare(query)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < warm; i++ {
		if _, err := stmt.Query(ctx, args(i)...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	before, rounds := cl.Stats().Reads, db.Client().ReadRounds()
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
	b.ReportMetric(float64(db.Client().ReadRounds()-rounds)/float64(b.N), "rounds/op")
}

// benchKey spreads successive iterations over the loaded rows: every row
// once in any budgetRows of them.
func benchKey(i int) int64 { return int64(i*7919) % budgetRows }

// keyArg is benchKey(i) as a statement's one argument.
func keyArg(i int) []sql.Value { return []sql.Value{sql.Int(benchKey(i))} }

func BenchmarkPointSelect(b *testing.B) {
	benchStatement(b, "SELECT v FROM p WHERE id = ?", 0, keyArg)
}

func BenchmarkPKUpdate(b *testing.B) {
	benchStatement(b, "UPDATE t SET v = ? WHERE id = ?", 0, func(i int) []sql.Value {
		return []sql.Value{sql.Text("updated"), sql.Int(benchKey(i))}
	})
}

// The two index lookups are of values looked up before (the warm-up
// visits every one): the state a session is in for all but the first
// lookup of a value, one read round where the first is two.

func BenchmarkUniqueIndexLookup(b *testing.B) {
	benchStatement(b, "SELECT v FROM t WHERE u = ?", budgetRows, func(i int) []sql.Value {
		return []sql.Value{sql.Int(benchKey(i) + 1000000)}
	})
}

// BenchmarkIndexEqLookup5 is five contiguous rows through a non-unique
// index, the shape of the wiki workload's links-of-a-page query.
func BenchmarkIndexEqLookup5(b *testing.B) {
	benchStatement(b, "SELECT v FROM l WHERE src = ?", budgetRows, func(i int) []sql.Value {
		return []sql.Value{sql.Int(benchKey(i) / 5)}
	})
}

func BenchmarkScan50(b *testing.B) {
	benchStatement(b, "SELECT id, v FROM p WHERE id >= ? LIMIT 50", 0, keyArg)
}

// BenchmarkJoin20 joins 20 rows of l, a primary-key range, to the row of
// t each names: one plan for the statement, then a point lookup of t per
// row of l.
func BenchmarkJoin20(b *testing.B) {
	benchStatement(b, join20, 0, join20Args)
}

const join20 = "SELECT l.id, t.v FROM l JOIN t ON t.id = l.src WHERE l.id >= ? AND l.id < ?"

// join20Args bounds the 20 rows of l that join20 reads from benchKey(i).
func join20Args(i int) []sql.Value {
	lo := benchKey(i) % (budgetRows - 20)
	return []sql.Value{sql.Int(lo), sql.Int(lo + 20)}
}

// BenchmarkInsertRows loads fresh ascending keys into the pk-only table,
// rows per INSERT statement as named: what a row costs to write, and how
// that falls as a statement carries more of them. The session has the
// default configuration and a warm inner-node cache, as the repo
// benchmark's loaders do, so each statement is blind: its writes are
// routed by the cache and its commit is its one round trip. A statement
// that grows a leaf past its limit splits it in its commit, after the
// commit itself, in one read round and the split's own commit: every
// number includes what splits cost a writer, about one per 64 rows
// however the rows are grouped (splits/op), and rounds/op is the splits'
// reads. ops/stmt is what one statement's commit carries, compares
// included: its rows' writes and key checks, and each leaf's route
// checks once.
func BenchmarkInsertRows(b *testing.B) {
	for _, n := range []int{1, 8, 64} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			_, db := loadBudgetDB(b)
			ctx := context.Background()
			query := "INSERT INTO p VALUES (?, ?)" + strings.Repeat(", (?, ?)", n-1)
			stmt, err := db.Prepare(query)
			if err != nil {
				b.Fatal(err)
			}
			args := func(first int) []sql.Value {
				args := make([]sql.Value, 0, 2*n)
				for j := 0; j < n; j++ {
					args = append(args, sql.Int(int64(first+j)), sql.Text("loaded"))
				}
				return args
			}
			insert := func(first int) {
				if _, err := stmt.Exec(ctx, args(first)...); err != nil {
					b.Fatal(err)
				}
			}
			table := budgetTrees(b, db)[0]
			var mallocs, rounds, ops, routed uint64
			var before, after runtime.MemStats
			splitsBefore := table.Stats().SplitsDone
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if staged, err := db.StagedOps(ctx, query, args(budgetRows+i*n)...); err == nil {
					ops += uint64(staged)
					routed++
				}
				runtime.ReadMemStats(&before)
				roundsBefore := db.Client().ReadRounds()
				b.StartTimer()
				insert(budgetRows + i*n)
				b.StopTimer()
				runtime.ReadMemStats(&after)
				mallocs += after.Mallocs - before.Mallocs
				rounds += db.Client().ReadRounds() - roundsBefore
				b.StartTimer()
			}
			b.StopTimer()
			rows := float64(b.N * n)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
			b.ReportMetric(float64(mallocs)/rows, "allocs/row")
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
			b.ReportMetric(float64(table.Stats().SplitsDone-splitsBefore)/float64(b.N), "splits/op")
			if routed > 0 {
				b.ReportMetric(float64(ops)/float64(routed), "ops/stmt")
			}
		})
	}
}
