package sql_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"yesquel/internal/cluster"
	"yesquel/internal/dbt"
	"yesquel/internal/kv/kvserver"
	"yesquel/internal/sql"
)

// budgetRows is how many rows loadBudgetDB puts in each table: enough
// for several leaves under the default MaxCells, so the trees have inner
// nodes to cache.
const budgetRows = 600

// loadBudgetDB starts a two-server cluster and loads the tables the read
// budget test and the layer benches share:
//
//	p (id INTEGER PRIMARY KEY, v TEXT)                       -- pk only
//	t (id INTEGER PRIMARY KEY, u INTEGER, v TEXT), UNIQUE(u) -- u = id+1000000
//	l (id INTEGER PRIMARY KEY, src INTEGER, v TEXT), INDEX(src) -- src = id/5
//
// The load is one row per statement, each of which splits what it grew
// before it returns, so every leaf ends within MaxCells and which leaves
// exist is the same on every run. The handle it returns is another one,
// with the default dbt.Config and every tree's inner nodes in its cache,
// so the statements that follow cost leaf reads only.
func loadBudgetDB(tb testing.TB) (*cluster.Cluster, *sql.DB) {
	tb.Helper()
	ctx := context.Background()
	cl, err := cluster.Start(2, kvserver.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(cl.Close)
	c, err := cl.NewClient()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	loader := sql.NewDB(c, dbt.Config{})
	tb.Cleanup(loader.Close)
	exec := func(q string, args ...sql.Value) {
		tb.Helper()
		if _, err := loader.Exec(ctx, q, args...); err != nil {
			tb.Fatalf("Exec(%q): %v", q, err)
		}
	}
	exec("CREATE TABLE p (id INTEGER PRIMARY KEY, v TEXT)")
	exec("CREATE TABLE t (id INTEGER PRIMARY KEY, u INTEGER, v TEXT)")
	exec("CREATE UNIQUE INDEX t_u ON t (u)")
	exec("CREATE TABLE l (id INTEGER PRIMARY KEY, src INTEGER, v TEXT)")
	exec("CREATE INDEX l_src ON l (src)")
	for i := 0; i < budgetRows; i++ {
		exec("INSERT INTO p VALUES (?, ?)", sql.Int(int64(i)), sql.Text(fmt.Sprintf("p%d", i)))
		exec("INSERT INTO t VALUES (?, ?, ?)", sql.Int(int64(i)), sql.Int(int64(i+1000000)), sql.Text(fmt.Sprintf("t%d", i)))
		exec("INSERT INTO l VALUES (?, ?, ?)", sql.Int(int64(i)), sql.Int(int64(i/5)), sql.Text(fmt.Sprintf("l%d", i)))
	}

	db := sql.NewDB(c, dbt.Config{})
	tb.Cleanup(db.Close)
	// Warm the inner-node caches with one pass over each tree.
	for _, tree := range budgetTrees(tb, db) {
		tx := c.Begin()
		res, err := tree.Check(ctx, tx)
		if err == nil && res.Height < 1 {
			err = fmt.Errorf("tree has no inner nodes to cache: %+v", res)
		}
		if err == nil {
			_, err = tree.Scan(ctx, tx, nil, -1)
		}
		tx.Abort()
		if err != nil {
			tb.Fatal(err)
		}
	}
	return cl, db
}

// budgetTrees returns db's handles to the trees of the budget tables.
func budgetTrees(tb testing.TB, db *sql.DB) []*dbt.Tree {
	tb.Helper()
	var trees []*dbt.Tree
	for _, name := range []string{"p", "t", "l"} {
		tx := db.Client().Begin()
		table, err := db.Catalog().GetTable(context.Background(), tx, name)
		tx.Abort()
		if err != nil {
			tb.Fatal(err)
		}
		trees = append(append(trees, table.Tree), table.IndexTrees...)
	}
	return trees
}

// treeReads sums NodeReads over trees.
func treeReads(trees []*dbt.Tree) uint64 {
	var n uint64
	for _, tree := range trees {
		n += tree.Stats().NodeReads
	}
	return n
}

// TestReadBudgetPerStatementShape pins what each common statement shape
// may cost once inner nodes are cached: reads the SERVERS observed (so a
// leaf a scan planned and never reached counts), the read rounds the
// client made to get them (what the statement waited for: a scan plans
// the leaves it will probably touch and a write statement its rows' leaf
// reads, each sent as one round, the write's after the round or rounds
// that found the rows it matches), and commits, with the default
// configuration. It also checks that no goroutine outlives a statement.
func TestReadBudgetPerStatementShape(t *testing.T) {
	cl, db := loadBudgetDB(t)
	ctx := context.Background()
	trees := budgetTrees(t, db)

	type shape struct {
		name    string
		q       string
		args    []sql.Value
		reads   uint64
		rounds  uint64
		commits uint64
		rows    int // expected result rows; -1 = an Exec
	}
	// Eight fresh rows in one statement; the 21-row ranges lie inside one
	// leaf each (the load is sequential and splits as it goes, so the
	// leaves are the same on every run — 64 rows each, a new one at every
	// multiple of 64; the SELECT before each, one read for 21 rows, says
	// so). A scan plans its leaves from its Limit, or from where its range
	// ends, before it has seen one: 5 rows are one leaf wherever they
	// start, 50 are two (one too many only when they start in a leaf's
	// first quarter), 200 are four — one round as long as the rows do not
	// reach into a fifth. An equality lookup through an index is the index
	// leaf and then the rows it names, two rounds, the first time a value is
	// looked up, and one round from then on: the rows it named ride along
	// with the index read, five of them (l.src = id/5) or one, and both
	// index leaves where the value's entries straddle two (entries are 64 to
	// a leaf, so src 12, ids 60..64, does).
	insert8 := "INSERT INTO p VALUES (?, ?)" + strings.Repeat(", (?, ?)", 7)
	var insert8Args []sql.Value
	for i := 0; i < 8; i++ {
		insert8Args = append(insert8Args, sql.Int(int64(budgetRows+100+i)), sql.Text("x"))
	}
	shapes := []shape{
		{"select pk", "SELECT v FROM p WHERE id = ?", []sql.Value{sql.Int(321)}, 1, 1, 0, 1},
		{"select pk miss", "SELECT v FROM p WHERE id = ?", []sql.Value{sql.Int(-5)}, 1, 1, 0, 0},
		{"update pk, no indexed column changed", "UPDATE t SET v = ? WHERE id = ?", []sql.Value{sql.Text("new"), sql.Int(123)}, 1, 1, 1, -1},
		{"insert into pk-only table", "INSERT INTO p VALUES (?, ?)", []sql.Value{sql.Int(budgetRows + 7), sql.Text("x")}, 0, 0, 1, -1},
		{"delete pk from pk-only table", "DELETE FROM p WHERE id = ?", []sql.Value{sql.Int(17)}, 0, 0, 1, -1},
		{"select unique column", "SELECT v FROM t WHERE u = ?", []sql.Value{sql.Int(1000222)}, 2, 2, 0, 1},
		{"select unique column, repeated", "SELECT v FROM t WHERE u = ?", []sql.Value{sql.Int(1000222)}, 2, 1, 0, 1},
		{"select 5 rows through an index", "SELECT id FROM l WHERE src = ?", []sql.Value{sql.Int(20)}, 6, 2, 0, 5},
		{"select 5 rows through an index, repeated", "SELECT id FROM l WHERE src = ?", []sql.Value{sql.Int(20)}, 6, 1, 0, 5},
		{"select 5 rows across an index-leaf boundary", "SELECT id FROM l WHERE src = ?", []sql.Value{sql.Int(12)}, 7, 2, 0, 5},
		{"select 5 rows across an index-leaf boundary, repeated", "SELECT id FROM l WHERE src = ?", []sql.Value{sql.Int(12)}, 7, 1, 0, 5},
		{"select pk = NULL", "SELECT v FROM p WHERE id = NULL", nil, 0, 0, 0, 0},
		{"select contradictory range", "SELECT v FROM p WHERE id > 9 AND id < 3", nil, 0, 0, 0, 0},
		{"select first row by pk order", "SELECT id FROM p ORDER BY id LIMIT 1", nil, 1, 1, 0, 1},
		{"select first row by pk order, positional", "SELECT id FROM p ORDER BY 1 LIMIT 1", nil, 1, 1, 0, 1},
		{"select first row by pk order, aliased", "SELECT id AS k FROM p ORDER BY k LIMIT 1", nil, 1, 1, 0, 1},
		// A join key named without its table is the outer table's all the
		// same: one leaf of l, then one point read of t for the five rows'
		// one src (20), which the read set answers four times over.
		{"join on an unqualified outer column", "SELECT l.id, t.u FROM l JOIN t ON t.id = src WHERE l.id BETWEEN 100 AND 104", nil, 2, 2, 0, 5},
		{"join on a qualified outer column", "SELECT l.id, t.u FROM l JOIN t ON t.id = l.src WHERE l.id BETWEEN 100 AND 104", nil, 2, 2, 0, 5},
		{"select 5 rows from mid-leaf", "SELECT id FROM p WHERE id >= ? LIMIT 5", []sql.Value{sql.Int(100)}, 1, 1, 0, 5},
		{"select pk range across a leaf boundary", "SELECT v FROM p WHERE id BETWEEN 120 AND 135", nil, 2, 1, 0, 16},
		{"select 50 rows from ten before a leaf boundary", "SELECT id FROM p WHERE id >= ? LIMIT 50", []sql.Value{sql.Int(118)}, 2, 1, 0, 50},
		{"select 200 rows across four leaves", "SELECT id FROM p WHERE id >= ? LIMIT 200", []sql.Value{sql.Int(350)}, 4, 1, 0, 200},
		{"insert 8 rows into pk-only table", insert8, insert8Args, 0, 0, 1, -1},
		{"insert with one UNIQUE index", "INSERT INTO t VALUES (?, ?, ?)", []sql.Value{sql.Int(budgetRows + 7), sql.Int(5), sql.Text("x")}, 0, 0, 1, -1},
		{"update UNIQUE column by pk", "UPDATE t SET u = ? WHERE id = ?", []sql.Value{sql.Int(6), sql.Int(300)}, 4, 2, 1, -1},
		{"delete pk from indexed table", "DELETE FROM t WHERE id = ?", []sql.Value{sql.Int(301)}, 2, 2, 1, -1},
		{"select 21-row pk range", "SELECT v FROM p WHERE id BETWEEN 200 AND 220", nil, 1, 1, 0, 21},
		{"select 21-row pk range, REAL bounds", "SELECT v FROM p WHERE id > 199.5 AND id < 220.5", nil, 1, 1, 0, 21},
		{"update 21-row pk range", "UPDATE p SET v = 'y' WHERE id BETWEEN 200 AND 220", nil, 22, 2, 1, -1},
		{"select 21-row pk range", "SELECT v FROM p WHERE id BETWEEN 264 AND 284", nil, 1, 1, 0, 21},
		{"delete 21-row pk range", "DELETE FROM p WHERE id BETWEEN 264 AND 284", nil, 22, 2, 1, -1},
		{"select 20 rows through an index range", "SELECT id FROM l WHERE src BETWEEN 40 AND 43", nil, 21, 2, 0, 20},
	}
	var got string     // the rows of the last query run
	var affected int64 // the RowsAffected of the last Exec
	run := func(s shape) (reads, rounds, commits uint64) {
		t.Helper()
		goroutines := runtime.NumGoroutine()
		before, treeBefore, roundsBefore := cl.Stats(), treeReads(trees), db.Client().ReadRounds()
		if s.rows < 0 {
			res, err := db.Exec(ctx, s.q, s.args...)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			affected = res.RowsAffected
		} else {
			rows, err := db.Query(ctx, s.q, s.args...)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			if rows.Len() != s.rows {
				t.Errorf("%s: %d rows, want %d", s.name, rows.Len(), s.rows)
			}
			got = rowsToString(rows)
		}
		after := cl.Stats()
		reads = after.Reads - before.Reads
		rounds = db.Client().ReadRounds() - roundsBefore
		commits = after.FastCommits + after.Commits - before.FastCommits - before.Commits
		t.Logf("%-40s server reads %d in %d rounds, commits %d, dbt NodeReads %d", s.name, reads, rounds, commits, treeReads(trees)-treeBefore)
		// Nothing a statement starts may run on after it: a scan reads in
		// rounds it waits for, and a spread round's goroutines end with it.
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; {
			if time.Now().After(deadline) {
				t.Errorf("%s: %d goroutines before the statement, %d after", s.name, goroutines, runtime.NumGoroutine())
				break
			}
			time.Sleep(time.Millisecond)
		}
		return reads, rounds, commits
	}
	check := func(s shape) {
		t.Helper()
		reads, rounds, commits := run(s)
		if reads != s.reads || rounds != s.rounds || commits != s.commits {
			t.Errorf("%s: %d server reads in %d rounds and %d commits, want %d in %d and %d",
				s.name, reads, rounds, commits, s.reads, s.rounds, s.commits)
		}
	}
	for _, s := range shapes {
		check(s)
	}

	// A table whose root is still a leaf: the cache holds inner nodes only,
	// and routes to the root once a descent has found it a leaf there — the
	// session's first statement on the table, which reads it.
	if _, err := db.Exec(ctx, "CREATE TABLE fresh (id INTEGER PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(ctx, "INSERT INTO fresh VALUES (1, 'x')"); err != nil {
		t.Fatal(err)
	}
	check(shape{"insert into a fresh table", "INSERT INTO fresh VALUES (?, ?)", []sql.Value{sql.Int(2), sql.Text("x")}, 0, 0, 1, -1})

	// An UPDATE by key that sets every column of a table with no index
	// needs no stored row: no read, and the commit's key-present compare
	// says whether there was a row. A missing row fails the compare, which
	// is no commit and no error.
	for _, s := range []struct {
		shape
		affected int64
	}{
		{shape{"update every column by pk", "UPDATE p SET v = ? WHERE id = ?", []sql.Value{sql.Text("w"), sql.Int(42)}, 0, 0, 1, -1}, 1},
		{shape{"update every column by pk, missing row", "UPDATE p SET v = ? WHERE id = ?", []sql.Value{sql.Text("w"), sql.Int(-42)}, 0, 0, 0, -1}, 0},
	} {
		check(s.shape)
		if affected != s.affected {
			t.Errorf("%s: RowsAffected %d, want %d", s.name, affected, s.affected)
		}
	}
	if got := rowsToString(mustQuery(t, db, "SELECT v FROM p WHERE id IN (42, -42)")); got != "w\n" {
		t.Errorf("after the updates by pk: %q", got)
	}

	// Inside BEGIN, after a staged INSERT: the UNIQUE probe, a scan under
	// staged writes, reads its index leaf through an uncapped window, and
	// its plan names that same read — still three reads in one round.
	if _, err := db.Exec(ctx, "BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(ctx, "INSERT INTO t VALUES (?, 20, 'x')", sql.Int(budgetRows+20)); err != nil {
		t.Fatal(err)
	}
	check(shape{"insert with one UNIQUE index after a staged insert", "INSERT INTO t VALUES (?, ?, ?)",
		[]sql.Value{sql.Int(budgetRows + 21), sql.Int(21), sql.Text("x")}, 3, 1, 0, -1})
	if _, err := db.Exec(ctx, "ROLLBACK"); err != nil {
		t.Fatal(err)
	}

	// A hint another session (other, which runs the writes below) has made
	// wrong: the lookup returns what the index holds now, wastes no more
	// than the reads the hint named (they travel in the index's round),
	// fetches the rows the hint did not name in the second round it always
	// made, and leaves the hint right, so the lookup after it is one round
	// again.
	other := sql.NewDB(db.Client(), dbt.Config{})
	t.Cleanup(other.Close)
	byU, bySrc := "SELECT id FROM t WHERE u = ?", "SELECT id FROM l WHERE src = ?"
	for _, s := range []struct {
		shape
		want string
	}{
		{shape{"warm u=1000400", byU, []sql.Value{sql.Int(1000400)}, 2, 2, 0, 1}, "400\n"},
		{shape{"warm u=1000410", byU, []sql.Value{sql.Int(1000410)}, 2, 2, 0, 1}, "410\n"},
		{shape{"warm src=40", bySrc, []sql.Value{sql.Int(40)}, 6, 2, 0, 5}, "200\n201\n202\n203\n204\n"},
		{shape{"warm src=41", bySrc, []sql.Value{sql.Int(41)}, 6, 2, 0, 5}, "205\n206\n207\n208\n209\n"},
		{shape{"move id 400 to u=2000400", "UPDATE t SET u = 2000400 WHERE id = 400", nil, 0, 0, 0, -1}, ""},
		{shape{"move id 202 to src=41", "UPDATE l SET src = 41 WHERE id = 202", nil, 0, 0, 0, -1}, ""},
		{shape{"delete id 410", "DELETE FROM t WHERE id = 410", nil, 0, 0, 0, -1}, ""},
		{shape{"insert u=1000410 as id 9410", "INSERT INTO t VALUES (9410, 1000410, 'again')", nil, 0, 0, 0, -1}, ""},
		{shape{"unique value whose row moved away", byU, []sql.Value{sql.Int(1000400)}, 2, 1, 0, 0}, ""},
		{shape{"unique value whose row moved away, repeated", byU, []sql.Value{sql.Int(1000400)}, 1, 1, 0, 0}, ""},
		{shape{"unique value a row moved to", byU, []sql.Value{sql.Int(2000400)}, 2, 2, 0, 1}, "400\n"},
		{shape{"unique value a row moved to, repeated", byU, []sql.Value{sql.Int(2000400)}, 2, 1, 0, 1}, "400\n"},
		{shape{"value that lost a row", bySrc, []sql.Value{sql.Int(40)}, 6, 1, 0, 4}, "200\n201\n203\n204\n"},
		{shape{"value that lost a row, repeated", bySrc, []sql.Value{sql.Int(40)}, 5, 1, 0, 4}, "200\n201\n203\n204\n"},
		{shape{"value that gained a row", bySrc, []sql.Value{sql.Int(41)}, 7, 2, 0, 6}, "202\n205\n206\n207\n208\n209\n"},
		{shape{"value that gained a row, repeated", bySrc, []sql.Value{sql.Int(41)}, 7, 1, 0, 6}, "202\n205\n206\n207\n208\n209\n"},
		{shape{"unique value deleted and re-inserted under a new key", byU, []sql.Value{sql.Int(1000410)}, 3, 2, 0, 1}, "9410\n"},
		{shape{"unique value deleted and re-inserted, repeated", byU, []sql.Value{sql.Int(1000410)}, 2, 1, 0, 1}, "9410\n"},
	} {
		if s.rows < 0 {
			if _, err := other.Exec(ctx, s.q); err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			continue
		}
		check(s.shape)
		if got != s.want {
			t.Errorf("%s: rows %q, want %q", s.name, got, s.want)
		}
	}

	// A pk range inside one leaf is one read. Leaves hold at least 64
	// cells, so of three adjacent two-key ranges at most one can straddle
	// a leaf boundary (and then costs two, in the one round).
	ones := 0
	for _, lo := range []int64{400, 402, 404} {
		reads, rounds, _ := run(shape{"select pk range", "SELECT v FROM p WHERE id BETWEEN ? AND ?",
			[]sql.Value{sql.Int(lo), sql.Int(lo + 1)}, 1, 1, 0, 2})
		if rounds != 1 {
			t.Errorf("pk range [%d, %d]: %d read rounds", lo, lo+1, rounds)
		}
		switch reads {
		case 1:
			ones++
		case 2:
		default:
			t.Errorf("pk range [%d, %d]: %d server reads", lo, lo+1, reads)
		}
	}
	if ones < 2 {
		t.Errorf("only %d of 3 two-key pk ranges cost one read", ones)
	}
}

// TestUpdateMaintainsOnlyChangedIndexes: an UPDATE that leaves an
// indexed column alone stages nothing on that index's tree (so it stays
// a one-object commit), while a change to the column still moves the
// entry and still trips the UNIQUE check.
func TestUpdateMaintainsOnlyChangedIndexes(t *testing.T) {
	db := newDB(t, 2)
	ctx := context.Background()
	mustExec(t, db, "CREATE TABLE page (id INTEGER PRIMARY KEY, title TEXT, latest INTEGER)")
	mustExec(t, db, "CREATE UNIQUE INDEX page_title ON page (title)")
	mustExec(t, db, "CREATE INDEX page_latest ON page (latest)")
	for i := int64(0); i < 5; i++ {
		mustExec(t, db, "INSERT INTO page VALUES (?, ?, ?)", sql.Int(i), sql.Text(fmt.Sprintf("T%d", i)), sql.Int(0))
	}
	tx := db.Client().Begin()
	table, err := db.Catalog().GetTable(ctx, tx, "page")
	tx.Abort()
	if err != nil {
		t.Fatal(err)
	}
	var title, latest *dbt.Tree
	for i, is := range table.Schema.Indexes {
		switch is.Name {
		case "page_title":
			title = table.IndexTrees[i]
		case "page_latest":
			latest = table.IndexTrees[i]
		}
	}

	// Every write to a tree starts with a descent of it, so a tree the
	// statement never descended has nothing staged on it.
	titleBefore, latestBefore := title.Stats().Descents, latest.Stats().Descents
	mustExec(t, db, "UPDATE page SET latest = ? WHERE id = ?", sql.Int(9), sql.Int(2))
	if d := title.Stats().Descents - titleBefore; d != 0 {
		t.Errorf("UPDATE of latest descended page_title's tree %d times", d)
	}
	if d := latest.Stats().Descents - latestBefore; d == 0 {
		t.Error("UPDATE of latest never touched page_latest's tree")
	}
	if got := rowsToString(mustQuery(t, db, "SELECT id FROM page WHERE latest = 9")); got != "2\n" {
		t.Errorf("lookup by new latest: %q", got)
	}
	if got := rowsToString(mustQuery(t, db, "SELECT id FROM page WHERE latest = 0 ORDER BY id")); got != "0\n1\n3\n4\n" {
		t.Errorf("lookup by old latest: %q", got)
	}
	if got := rowsToString(mustQuery(t, db, "SELECT id FROM page WHERE title = 'T2'")); got != "2\n" {
		t.Errorf("lookup by untouched title: %q", got)
	}

	// A changed UNIQUE column is still checked, and still moved.
	if _, err := db.Exec(ctx, "UPDATE page SET title = 'T3' WHERE id = 2"); err == nil {
		t.Error("UPDATE to a taken title succeeded")
	}
	mustExec(t, db, "UPDATE page SET title = 'fresh' WHERE id = 2")
	if got := rowsToString(mustQuery(t, db, "SELECT id FROM page WHERE title = 'fresh'")); got != "2\n" {
		t.Errorf("lookup by new title: %q", got)
	}
	if got := rowsToString(mustQuery(t, db, "SELECT id FROM page WHERE title = 'T2'")); got != "" {
		t.Errorf("old title still indexed: %q", got)
	}
	// Setting a column to the value it has is not a change either.
	titleBefore = title.Stats().Descents
	mustExec(t, db, "UPDATE page SET title = 'fresh', latest = 10 WHERE id = 2")
	if d := title.Stats().Descents - titleBefore; d != 0 {
		t.Errorf("UPDATE to the same title descended page_title's tree %d times", d)
	}
}
