package sql_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"yesquel/internal/cluster"
	"yesquel/internal/dbt"
	"yesquel/internal/kv/kvserver"
	"yesquel/internal/sql"
)

// newSessions starts a cluster of servers and returns n sessions on it,
// each with its own client and catalog.
func newSessions(t *testing.T, servers, n int) []*sql.DB {
	t.Helper()
	cl, err := cluster.Start(servers, kvserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	var dbs []*sql.DB
	for i := 0; i < n; i++ {
		c, err := cl.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		db := sql.NewDB(c, dbt.Config{MaxCells: 16})
		t.Cleanup(db.Close)
		dbs = append(dbs, db)
	}
	return dbs
}

// TestCachedHandleSurvivesOtherSessionsDDL: a session's cached table
// handle outlives DDL run by another session. The next statement that
// meets a dropped tree drops the cached handles and runs again on what
// the catalog now says — after DROP INDEX, and after DROP TABLE and a
// CREATE TABLE of the same name. Inside BEGIN the error surfaces, and
// the statement after it reloads the handle. A table of 3 rows keeps its
// trees' roots leaves; one of 40 grows them inner nodes, which the
// handle caches and routes through without reading the root.
func TestCachedHandleSurvivesOtherSessionsDDL(t *testing.T) {
	for _, n := range []int{3, 40} {
		t.Run(fmt.Sprintf("rows=%d", n), func(t *testing.T) { testOtherSessionsDDL(t, n) })
	}
}

func testOtherSessionsDDL(t *testing.T, n int) {
	dbs := newSessions(t, 2, 2)
	a, b := dbs[0], dbs[1]
	// B's next snapshot covers what A committed so far: clients share no
	// clock, and two commits within one clock tick may order either way.
	learn := func() { b.Client().Clock().Observe(a.Client().Clock().Last()) }
	count := func(want int) {
		t.Helper()
		if got := rowsToString(mustQuery(t, b, "SELECT COUNT(*) FROM t WHERE v = 'x'")); got != fmt.Sprintf("%d\n", want) {
			t.Fatalf("count: %q, want %d", got, want)
		}
	}
	mustExec(t, a, "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
	mustExec(t, a, "CREATE INDEX tv ON t (v)")
	for i := 1; i <= n; i++ {
		mustExec(t, a, "INSERT INTO t VALUES (?, ?)", sql.Int(int64(i)), sql.Text("x"))
	}
	learn()
	count(n)

	mustExec(t, a, "DROP INDEX tv")
	learn()
	mustExec(t, b, "INSERT INTO t VALUES (?, 'x')", sql.Int(int64(n+1)))
	count(n + 1)
	mustExec(t, a, "CREATE INDEX tv ON t (v)") // a fresh tree, which B's handle does not name
	learn()
	count(n + 1)

	mustExec(t, a, "DROP TABLE t")
	mustExec(t, a, "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
	mustExec(t, a, "INSERT INTO t VALUES (1, 'new')")
	learn()
	if got := rowsToString(mustQuery(t, b, "SELECT v FROM t")); got != "new\n" {
		t.Fatalf("rows after DROP and CREATE TABLE: %q", got)
	}

	// Inside BEGIN the dropped tree surfaces; the next statement reloads.
	ctx := context.Background()
	mustExec(t, a, "DROP TABLE t")
	mustExec(t, a, "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
	learn()
	mustExec(t, b, "BEGIN")
	if _, err := b.Query(ctx, "SELECT v FROM t"); !errors.Is(err, dbt.ErrTreeNotFound) {
		t.Fatalf("dropped table inside BEGIN: %v, want %v", err, dbt.ErrTreeNotFound)
	}
	mustExec(t, b, "ROLLBACK")
	if got := rowsToString(mustQuery(t, b, "SELECT COUNT(*) FROM t")); got != "0\n" {
		t.Fatalf("rows after the reload: %q", got)
	}
}

// TestSessionSurface drives what a shell calls of a session: rows walked
// with Next and Row, InTx around an explicit transaction, the schema
// listings (inside a transaction they read at its snapshot), and the
// transaction statements out of place.
func TestSessionSurface(t *testing.T) {
	db := newSessions(t, 2, 1)[0]
	ctx := context.Background()
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
	mustExec(t, db, "CREATE TABLE u (id INTEGER PRIMARY KEY, w INTEGER)")
	mustExec(t, db, "CREATE UNIQUE INDEX tv ON t (v)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 'a'), (2, 'b')")

	rows := mustQuery(t, db, "SELECT id, v FROM t ORDER BY id")
	var got []string
	for rows.Next() {
		r := rows.Row()
		got = append(got, r[0].String()+"="+r[1].String())
	}
	if strings.Join(got, " ") != "1=a 2=b" || rows.Next() {
		t.Fatalf("rows walked: %v", got)
	}

	names := func() string {
		tables, err := db.Tables(ctx)
		if err != nil {
			t.Fatal(err)
		}
		indexes, err := db.Indexes(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, ts := range tables {
			out = append(out, ts.Name)
		}
		for _, is := range indexes {
			out = append(out, fmt.Sprintf("%s(%s.%s unique=%v)", is.Name, is.Table, is.Col, is.Unique))
		}
		return strings.Join(out, " ")
	}
	if got := names(); got != "t u tv(t.v unique=true)" {
		t.Fatalf("schema: %q", got)
	}

	for _, q := range []string{"COMMIT", "ROLLBACK"} {
		if _, err := db.Exec(ctx, q); err == nil || !strings.Contains(err.Error(), "no transaction open") {
			t.Fatalf("%s with no transaction: %v", q, err)
		}
	}
	if db.InTx() {
		t.Fatal("InTx before BEGIN")
	}
	mustExec(t, db, "BEGIN")
	if !db.InTx() {
		t.Fatal("no InTx after BEGIN")
	}
	if _, err := db.Exec(ctx, "BEGIN"); err == nil || !strings.Contains(err.Error(), "already open") {
		t.Fatalf("BEGIN inside BEGIN: %v", err)
	}
	mustExec(t, db, "DROP INDEX tv")
	if got := names(); got != "t u" {
		t.Fatalf("schema inside the transaction after DROP INDEX: %q", got)
	}
	mustExec(t, db, "ROLLBACK")
	if db.InTx() {
		t.Fatal("InTx after ROLLBACK")
	}
	if got := names(); got != "t u tv(t.v unique=true)" {
		t.Fatalf("schema after ROLLBACK: %q", got)
	}
}

// TestDropIndexAndTableWithIndex: DROP INDEX removes the index and its
// constraint and leaves the rows; DROP TABLE drops the table's indexes
// with it, so the names are free again; each refuses a name that is not
// there unless IF EXISTS.
func TestDropIndexAndTableWithIndex(t *testing.T) {
	db := newSessions(t, 2, 1)[0]
	ctx := context.Background()
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
	mustExec(t, db, "CREATE UNIQUE INDEX tv ON t (v)")
	mustExec(t, db, "CREATE INDEX tid ON t (id)")
	for i := 1; i <= 40; i++ {
		mustExec(t, db, "INSERT INTO t VALUES (?, ?)", sql.Int(int64(i)), sql.Text(fmt.Sprintf("v%d", i)))
	}
	if _, err := db.Exec(ctx, "INSERT INTO t VALUES (41, 'v1')"); err == nil {
		t.Fatal("UNIQUE index did not refuse a duplicate")
	}

	mustExec(t, db, "DROP INDEX tv")
	mustExec(t, db, "INSERT INTO t VALUES (41, 'v1')")
	if got := rowsToString(mustQuery(t, db, "SELECT id FROM t WHERE v = 'v1' ORDER BY id")); got != "1\n41\n" {
		t.Fatalf("rows by v after DROP INDEX: %q", got)
	}
	if _, err := db.Exec(ctx, "DROP INDEX tv"); err == nil || !strings.Contains(err.Error(), "no such index") {
		t.Fatalf("DROP INDEX of a dropped index: %v", err)
	}
	mustExec(t, db, "DROP INDEX IF EXISTS tv")

	mustExec(t, db, "DROP TABLE t")
	if idx, err := db.Indexes(ctx); err != nil || len(idx) != 0 {
		t.Fatalf("indexes after DROP TABLE: %v, %v", idx, err)
	}
	if _, err := db.Query(ctx, "SELECT * FROM t"); err == nil || !strings.Contains(err.Error(), "no such table") {
		t.Fatalf("SELECT from a dropped table: %v", err)
	}
	mustExec(t, db, "DROP TABLE IF EXISTS t")
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
	mustExec(t, db, "CREATE INDEX tid ON t (id)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 'again')")
	if got := rowsToString(mustQuery(t, db, "SELECT v FROM t WHERE id = 1")); got != "again\n" {
		t.Fatalf("recreated table: %q", got)
	}
}
