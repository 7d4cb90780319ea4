package sql_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"yesquel/internal/cluster"
	"yesquel/internal/dbt"
	"yesquel/internal/kv"
	"yesquel/internal/kv/kvserver"
	"yesquel/internal/sql"
)

// newDB starts a cluster and returns a connected session.
func newDB(t *testing.T, servers int) *sql.DB {
	t.Helper()
	cl, err := cluster.Start(servers, kvserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	db := sql.NewDB(c, dbt.Config{MaxCells: 16})
	t.Cleanup(db.Close)
	return db
}

func mustExec(t *testing.T, db *sql.DB, q string, args ...sql.Value) sql.Result {
	t.Helper()
	res, err := db.Exec(context.Background(), q, args...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", q, err)
	}
	return res
}

func mustQuery(t *testing.T, db *sql.DB, q string, args ...sql.Value) *sql.Rows {
	t.Helper()
	rows, err := db.Query(context.Background(), q, args...)
	if err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	return rows
}

// rowsToString renders rows compactly for comparison.
func rowsToString(r *sql.Rows) string {
	var sb strings.Builder
	for _, row := range r.All() {
		var parts []string
		for _, v := range row {
			parts = append(parts, v.String())
		}
		sb.WriteString(strings.Join(parts, "|"))
		sb.WriteString("\n")
	}
	return sb.String()
}

func setupUsers(t *testing.T, db *sql.DB) {
	mustExec(t, db, `CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT, age INTEGER, city TEXT)`)
	for i, u := range []struct {
		name string
		age  int
		city string
	}{
		{"alice", 30, "paris"},
		{"bob", 25, "london"},
		{"carol", 35, "paris"},
		{"dave", 25, "berlin"},
		{"erin", 40, "london"},
	} {
		mustExec(t, db, "INSERT INTO users (id, name, age, city) VALUES (?, ?, ?, ?)",
			sql.Int(int64(i+1)), sql.Text(u.name), sql.Int(int64(u.age)), sql.Text(u.city))
	}
}

func TestCreateInsertSelect(t *testing.T) {
	db := newDB(t, 1)
	setupUsers(t, db)
	rows := mustQuery(t, db, "SELECT id, name FROM users WHERE id = 3")
	if got := rowsToString(rows); got != "3|carol\n" {
		t.Fatalf("got %q", got)
	}
}

func TestSelectStarAndColumnNames(t *testing.T) {
	db := newDB(t, 1)
	setupUsers(t, db)
	rows := mustQuery(t, db, "SELECT * FROM users WHERE name = 'bob'")
	if len(rows.Columns) != 4 || rows.Columns[0] != "id" || rows.Columns[3] != "city" {
		t.Fatalf("columns: %v", rows.Columns)
	}
	if got := rowsToString(rows); got != "2|bob|25|london\n" {
		t.Fatalf("got %q", got)
	}
}

func TestWherePredicates(t *testing.T) {
	db := newDB(t, 1)
	setupUsers(t, db)
	cases := []struct {
		q    string
		want string
	}{
		{"SELECT name FROM users WHERE age > 30 ORDER BY name", "carol\nerin\n"},
		{"SELECT name FROM users WHERE age >= 30 AND city = 'paris' ORDER BY name", "alice\ncarol\n"},
		{"SELECT name FROM users WHERE age = 25 OR age = 40 ORDER BY name", "bob\ndave\nerin\n"},
		{"SELECT name FROM users WHERE city IN ('paris', 'berlin') ORDER BY name", "alice\ncarol\ndave\n"},
		{"SELECT name FROM users WHERE age BETWEEN 25 AND 30 ORDER BY name", "alice\nbob\ndave\n"},
		{"SELECT name FROM users WHERE name LIKE 'c%'", "carol\n"},
		{"SELECT name FROM users WHERE name LIKE '%a%e%' ORDER BY name", "alice\ndave\n"},
		{"SELECT name FROM users WHERE NOT (city = 'paris') ORDER BY name", "bob\ndave\nerin\n"},
		{"SELECT name FROM users WHERE id % 2 = 0 ORDER BY name", "bob\ndave\n"},
	}
	for _, tc := range cases {
		if got := rowsToString(mustQuery(t, db, tc.q)); got != tc.want {
			t.Errorf("%s:\ngot  %q\nwant %q", tc.q, got, tc.want)
		}
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	db := newDB(t, 1)
	setupUsers(t, db)
	cases := []struct {
		q    string
		want string
	}{
		{"SELECT name FROM users ORDER BY age, name", "bob\ndave\nalice\ncarol\nerin\n"},
		{"SELECT name FROM users ORDER BY age DESC, name DESC", "erin\ncarol\nalice\ndave\nbob\n"},
		{"SELECT name FROM users ORDER BY name LIMIT 2", "alice\nbob\n"},
		{"SELECT name FROM users ORDER BY name LIMIT 2 OFFSET 3", "dave\nerin\n"},
		{"SELECT name FROM users ORDER BY name LIMIT 0", ""},
		{"SELECT name FROM users ORDER BY 1 DESC LIMIT 1", "erin\n"},
		{"SELECT name AS n FROM users ORDER BY n LIMIT 1", "alice\n"},
		// An output alias shadows a column of the same name, the primary
		// key included: the rows come in the alias's order, not the scan's.
		{"SELECT age AS id FROM users ORDER BY id", "25\n25\n30\n35\n40\n"},
		{"SELECT DISTINCT age AS id FROM users ORDER BY id", "25\n30\n35\n40\n"},
	}
	for _, tc := range cases {
		if got := rowsToString(mustQuery(t, db, tc.q)); got != tc.want {
			t.Errorf("%s:\ngot  %q\nwant %q", tc.q, got, tc.want)
		}
	}
}

func TestAggregates(t *testing.T) {
	db := newDB(t, 1)
	setupUsers(t, db)
	cases := []struct {
		q    string
		want string
	}{
		{"SELECT count(*) FROM users", "5\n"},
		{"SELECT count(*) FROM users WHERE age < 30", "2\n"},
		{"SELECT sum(age), min(age), max(age) FROM users", "155|25|40\n"},
		{"SELECT avg(age) FROM users", "31\n"},
		{"SELECT count(*) FROM users WHERE age > 100", "0\n"},
		{"SELECT sum(age) FROM users WHERE age > 100", "NULL\n"},
		{"SELECT city, count(*) FROM users GROUP BY city ORDER BY city", "berlin|1\nlondon|2\nparis|2\n"},
		{"SELECT city, sum(age) FROM users GROUP BY city HAVING sum(age) > 60 ORDER BY city", "london|65\nparis|65\n"},
		{"SELECT count(distinct city) FROM users", "3\n"},
		{"SELECT city, count(*) AS c FROM users GROUP BY city ORDER BY c DESC, city LIMIT 2", "london|2\nparis|2\n"},
		// GROUP BY k groups by output item k, which may not be an aggregate.
		{"SELECT city, count(*) FROM users GROUP BY 1 ORDER BY 1", "berlin|1\nlondon|2\nparis|2\n"},
		{"SELECT city, count(*) FROM users GROUP BY 2", "error: sql: aggregate functions are not allowed in the GROUP BY clause"},
		// A name in GROUP BY or HAVING is a column first, an output alias
		// only when no column has it, as in SQLite.
		{"SELECT city AS k, count(*) FROM users GROUP BY k ORDER BY k", "berlin|1\nlondon|2\nparis|2\n"},
		{"SELECT city, count(*) AS n FROM users GROUP BY city HAVING n > 1 ORDER BY city", "london|2\nparis|2\n"},
		{"SELECT count(*) AS city FROM users GROUP BY city ORDER BY 1", "1\n2\n2\n"},
		{"SELECT count(*) AS n FROM users GROUP BY n", "error: sql: aggregate functions are not allowed in the GROUP BY clause"},
		// An aggregate in WHERE fails at plan time, before any row reaches it.
		{"SELECT * FROM users WHERE count(*) > 1", "error: sql: misuse of aggregate: count()"},
		{"SELECT * FROM users WHERE id < 0 AND max(age) > 1", "error: sql: misuse of aggregate: max()"},
	}
	for _, tc := range cases {
		rows, err := db.Query(context.Background(), tc.q)
		got := "error: " + fmt.Sprint(err)
		if err == nil {
			got = rowsToString(rows)
		}
		if got != tc.want {
			t.Errorf("%s:\ngot  %q\nwant %q", tc.q, got, tc.want)
		}
	}
}

func TestJoin(t *testing.T) {
	db := newDB(t, 2)
	setupUsers(t, db)
	mustExec(t, db, "CREATE TABLE orders (oid INTEGER PRIMARY KEY, user_id INTEGER, total REAL)")
	orders := []struct {
		oid, uid int64
		total    float64
	}{
		{1, 1, 10.5}, {2, 1, 20.0}, {3, 2, 5.0}, {4, 3, 7.5}, {5, 99, 1.0},
	}
	for _, o := range orders {
		mustExec(t, db, "INSERT INTO orders VALUES (?, ?, ?)", sql.Int(o.oid), sql.Int(o.uid), sql.Float(o.total))
	}
	cases := []struct {
		q    string
		want string
	}{
		{"SELECT u.name, o.total FROM users u JOIN orders o ON o.user_id = u.id ORDER BY o.oid",
			"alice|10.5\nalice|20\nbob|5\ncarol|7.5\n"},
		{"SELECT u.name, count(*), sum(o.total) FROM users u JOIN orders o ON o.user_id = u.id GROUP BY u.name ORDER BY u.name",
			"alice|2|30.5\nbob|1|5\ncarol|1|7.5\n"},
		{"SELECT u.name FROM users u JOIN orders o ON o.user_id = u.id WHERE o.total > 8 ORDER BY o.oid",
			"alice\nalice\n"},
		// Self-join through aliases.
		{"SELECT a.name, b.name FROM users a JOIN users b ON a.age = b.age AND a.id < b.id",
			"bob|dave\n"},
	}
	for _, tc := range cases {
		if got := rowsToString(mustQuery(t, db, tc.q)); got != tc.want {
			t.Errorf("%s:\ngot  %q\nwant %q", tc.q, got, tc.want)
		}
	}
}

func TestUpdateDelete(t *testing.T) {
	db := newDB(t, 1)
	setupUsers(t, db)
	res := mustExec(t, db, "UPDATE users SET age = age + 1 WHERE city = 'paris'")
	if res.RowsAffected != 2 {
		t.Fatalf("update affected %d", res.RowsAffected)
	}
	if got := rowsToString(mustQuery(t, db, "SELECT age FROM users WHERE name = 'alice'")); got != "31\n" {
		t.Fatalf("after update: %q", got)
	}
	res = mustExec(t, db, "DELETE FROM users WHERE age = 25")
	if res.RowsAffected != 2 {
		t.Fatalf("delete affected %d", res.RowsAffected)
	}
	if got := rowsToString(mustQuery(t, db, "SELECT count(*) FROM users")); got != "3\n" {
		t.Fatalf("after delete: %q", got)
	}
}

func TestUpdatePrimaryKey(t *testing.T) {
	db := newDB(t, 1)
	setupUsers(t, db)
	mustExec(t, db, "UPDATE users SET id = 100 WHERE name = 'bob'")
	if got := rowsToString(mustQuery(t, db, "SELECT id FROM users WHERE name = 'bob'")); got != "100\n" {
		t.Fatalf("pk update: %q", got)
	}
	if got := rowsToString(mustQuery(t, db, "SELECT count(*) FROM users")); got != "5\n" {
		t.Fatalf("row count changed: %q", got)
	}
	// PK collision must fail.
	if _, err := db.Exec(context.Background(), "UPDATE users SET id = 1 WHERE name = 'carol'"); err == nil {
		t.Fatal("pk collision not detected")
	}
}

func TestPrimaryKeyUniqueness(t *testing.T) {
	db := newDB(t, 1)
	setupUsers(t, db)
	_, err := db.Exec(context.Background(), "INSERT INTO users (id, name) VALUES (1, 'dup')")
	if err == nil || !strings.Contains(err.Error(), "UNIQUE") {
		t.Fatalf("duplicate pk: %v", err)
	}
}

func TestNotNullConstraint(t *testing.T) {
	db := newDB(t, 1)
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, req TEXT NOT NULL)")
	if _, err := db.Exec(context.Background(), "INSERT INTO t (id) VALUES (1)"); err == nil {
		t.Fatal("NOT NULL not enforced")
	}
	if _, err := db.Exec(context.Background(), "INSERT INTO t VALUES (1, NULL)"); err == nil {
		t.Fatal("explicit NULL not rejected")
	}
}

func TestSecondaryIndex(t *testing.T) {
	db := newDB(t, 2)
	setupUsers(t, db)
	mustExec(t, db, "CREATE INDEX idx_city ON users (city)")
	// Same results through the index path.
	if got := rowsToString(mustQuery(t, db, "SELECT name FROM users WHERE city = 'paris' ORDER BY name")); got != "alice\ncarol\n" {
		t.Fatalf("index lookup: %q", got)
	}
	// Index maintained by INSERT / UPDATE / DELETE.
	mustExec(t, db, "INSERT INTO users VALUES (10, 'zoe', 22, 'paris')")
	mustExec(t, db, "UPDATE users SET city = 'rome' WHERE name = 'alice'")
	mustExec(t, db, "DELETE FROM users WHERE name = 'carol'")
	if got := rowsToString(mustQuery(t, db, "SELECT name FROM users WHERE city = 'paris' ORDER BY name")); got != "zoe\n" {
		t.Fatalf("index after DML: %q", got)
	}
	if got := rowsToString(mustQuery(t, db, "SELECT name FROM users WHERE city = 'rome'")); got != "alice\n" {
		t.Fatalf("index after update: %q", got)
	}
}

func TestUniqueIndex(t *testing.T) {
	db := newDB(t, 1)
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, email TEXT)")
	mustExec(t, db, "CREATE UNIQUE INDEX idx_email ON t (email)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 'a@x.com')")
	if _, err := db.Exec(context.Background(), "INSERT INTO t VALUES (2, 'a@x.com')"); err == nil {
		t.Fatal("unique index not enforced")
	}
	// NULLs are exempt.
	mustExec(t, db, "INSERT INTO t VALUES (3, NULL)")
	mustExec(t, db, "INSERT INTO t VALUES (4, NULL)")
}

func TestCreateIndexBackfill(t *testing.T) {
	db := newDB(t, 1)
	setupUsers(t, db)
	mustExec(t, db, "CREATE INDEX idx_age ON users (age)")
	if got := rowsToString(mustQuery(t, db, "SELECT name FROM users WHERE age = 25 ORDER BY name")); got != "bob\ndave\n" {
		t.Fatalf("backfilled index: %q", got)
	}
	// Unique backfill over duplicate data must fail.
	if _, err := db.Exec(context.Background(), "CREATE UNIQUE INDEX idx_age2 ON users (age)"); err == nil {
		t.Fatal("unique backfill over duplicates succeeded")
	}
}

func TestRangeQueriesOnPK(t *testing.T) {
	db := newDB(t, 2)
	mustExec(t, db, "CREATE TABLE seq (id INTEGER PRIMARY KEY, v TEXT)")
	for i := 1; i <= 100; i++ {
		mustExec(t, db, "INSERT INTO seq VALUES (?, ?)", sql.Int(int64(i)), sql.Text(fmt.Sprintf("v%d", i)))
	}
	if got := rowsToString(mustQuery(t, db, "SELECT count(*) FROM seq WHERE id > 90")); got != "10\n" {
		t.Fatalf("range: %q", got)
	}
	if got := rowsToString(mustQuery(t, db, "SELECT v FROM seq WHERE id >= 5 AND id < 8 ORDER BY id")); got != "v5\nv6\nv7\n" {
		t.Fatalf("range: %q", got)
	}
	if got := rowsToString(mustQuery(t, db, "SELECT v FROM seq WHERE id BETWEEN 98 AND 100 ORDER BY id")); got != "v98\nv99\nv100\n" {
		t.Fatalf("between: %q", got)
	}
}

func TestRowidTableWithoutPK(t *testing.T) {
	db := newDB(t, 1)
	mustExec(t, db, "CREATE TABLE log (msg TEXT, sev INTEGER)")
	mustExec(t, db, "INSERT INTO log VALUES ('a', 1), ('b', 2), ('c', 1)")
	if got := rowsToString(mustQuery(t, db, "SELECT count(*) FROM log WHERE sev = 1")); got != "2\n" {
		t.Fatalf("%q", got)
	}
	mustExec(t, db, "DELETE FROM log WHERE msg = 'b'")
	if got := rowsToString(mustQuery(t, db, "SELECT count(*) FROM log")); got != "2\n" {
		t.Fatalf("%q", got)
	}
}

func TestExplicitTransactionCommit(t *testing.T) {
	db := newDB(t, 2)
	setupUsers(t, db)
	mustExec(t, db, "BEGIN")
	mustExec(t, db, "UPDATE users SET age = 0 WHERE id = 1")
	mustExec(t, db, "UPDATE users SET age = 99 WHERE id = 2")
	// A second session must not see the uncommitted writes.
	db2 := sql.NewDBWithCatalog(db.Client(), db.Catalog())
	if got := rowsToString(mustQuery(t, db2, "SELECT age FROM users WHERE id = 1")); got != "30\n" {
		t.Fatalf("dirty read: %q", got)
	}
	mustExec(t, db, "COMMIT")
	if got := rowsToString(mustQuery(t, db2, "SELECT age FROM users WHERE id = 1")); got != "0\n" {
		t.Fatalf("after commit: %q", got)
	}
}

func TestExplicitTransactionRollback(t *testing.T) {
	db := newDB(t, 1)
	setupUsers(t, db)
	mustExec(t, db, "BEGIN")
	mustExec(t, db, "DELETE FROM users")
	if got := rowsToString(mustQuery(t, db, "SELECT count(*) FROM users")); got != "0\n" {
		t.Fatalf("tx does not see own delete: %q", got)
	}
	mustExec(t, db, "ROLLBACK")
	if got := rowsToString(mustQuery(t, db, "SELECT count(*) FROM users")); got != "5\n" {
		t.Fatalf("rollback failed: %q", got)
	}
}

func TestTransactionConflictSurfaces(t *testing.T) {
	db1 := newDB(t, 1)
	setupUsers(t, db1)
	db2 := sql.NewDBWithCatalog(db1.Client(), db1.Catalog())

	mustExec(t, db1, "BEGIN")
	mustExec(t, db2, "BEGIN")
	// Both read-modify-write the same row.
	mustQuery(t, db1, "SELECT age FROM users WHERE id = 1")
	mustQuery(t, db2, "SELECT age FROM users WHERE id = 1")
	mustExec(t, db1, "UPDATE users SET age = 31 WHERE id = 1")
	mustExec(t, db2, "UPDATE users SET age = 32 WHERE id = 1")
	mustExec(t, db1, "COMMIT")
	_, err := db1.Exec(context.Background(), "SELECT 1") // no-op spacing
	_ = err
	if _, err := db2.Exec(context.Background(), "COMMIT"); !errors.Is(err, kv.ErrConflict) {
		t.Fatalf("second committer: %v", err)
	}
}

func TestDropTable(t *testing.T) {
	db := newDB(t, 1)
	setupUsers(t, db)
	mustExec(t, db, "DROP TABLE users")
	if _, err := db.Query(context.Background(), "SELECT * FROM users"); err == nil {
		t.Fatal("dropped table still queryable")
	}
	// Re-create with the same name.
	mustExec(t, db, "CREATE TABLE users (id INTEGER PRIMARY KEY, x TEXT)")
	mustExec(t, db, "INSERT INTO users VALUES (1, 'fresh')")
	if got := rowsToString(mustQuery(t, db, "SELECT x FROM users")); got != "fresh\n" {
		t.Fatalf("recreated table: %q", got)
	}
}

func TestIfNotExistsAndIfExists(t *testing.T) {
	db := newDB(t, 1)
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY)")
	mustExec(t, db, "CREATE TABLE IF NOT EXISTS t (id INTEGER PRIMARY KEY)")
	mustExec(t, db, "DROP TABLE IF EXISTS missing")
	mustExec(t, db, "DROP INDEX IF EXISTS missing_idx")
	if _, err := db.Exec(context.Background(), "CREATE TABLE t (id INTEGER PRIMARY KEY)"); err == nil {
		t.Fatal("duplicate create succeeded")
	}
}

func TestExpressionsAndFunctions(t *testing.T) {
	db := newDB(t, 1)
	cases := []struct {
		q    string
		want string
	}{
		{"SELECT 1 + 2 * 3", "7\n"},
		{"SELECT (1 + 2) * 3", "9\n"},
		{"SELECT 10 / 4", "2\n"},
		{"SELECT 10.0 / 4", "2.5\n"},
		{"SELECT 10 / 0", "NULL\n"},
		{"SELECT -5", "-5\n"},
		{"SELECT 'a' || 'b' || 'c'", "abc\n"},
		{"SELECT length('hello')", "5\n"},
		{"SELECT upper('abc'), lower('ABC')", "ABC|abc\n"},
		{"SELECT abs(-3), abs(2.5)", "3|2.5\n"},
		{"SELECT coalesce(NULL, NULL, 7)", "7\n"},
		{"SELECT NULL IS NULL", "1\n"},
		{"SELECT 1 = NULL", "NULL\n"},
		{"SELECT 1 WHERE 0", ""},
		{"SELECT 1 WHERE NULL", ""},
	}
	for _, tc := range cases {
		if got := rowsToString(mustQuery(t, db, tc.q)); got != tc.want {
			t.Errorf("%s:\ngot  %q\nwant %q", tc.q, got, tc.want)
		}
	}
}

func TestNullHandlingInData(t *testing.T) {
	db := newDB(t, 1)
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 10), (2, NULL), (3, 30)")
	cases := []struct {
		q    string
		want string
	}{
		{"SELECT count(*) FROM t", "3\n"},
		{"SELECT count(v) FROM t", "2\n"},
		{"SELECT sum(v) FROM t", "40\n"},
		{"SELECT id FROM t WHERE v IS NULL", "2\n"},
		{"SELECT id FROM t WHERE v IS NOT NULL ORDER BY id", "1\n3\n"},
		{"SELECT id FROM t WHERE v > 5 ORDER BY id", "1\n3\n"}, // NULL row filtered
		{"SELECT id FROM t ORDER BY v", "2\n1\n3\n"},           // NULL sorts first
	}
	for _, tc := range cases {
		if got := rowsToString(mustQuery(t, db, tc.q)); got != tc.want {
			t.Errorf("%s:\ngot  %q\nwant %q", tc.q, got, tc.want)
		}
	}
}

func TestDistinct(t *testing.T) {
	db := newDB(t, 1)
	setupUsers(t, db)
	if got := rowsToString(mustQuery(t, db, "SELECT DISTINCT city FROM users ORDER BY city")); got != "berlin\nlondon\nparis\n" {
		t.Fatalf("%q", got)
	}
	if got := rowsToString(mustQuery(t, db, "SELECT DISTINCT age FROM users WHERE city = 'london' ORDER BY age")); got != "25\n40\n" {
		t.Fatalf("%q", got)
	}
}

func TestTextPrimaryKey(t *testing.T) {
	db := newDB(t, 2)
	mustExec(t, db, "CREATE TABLE kvs (k TEXT PRIMARY KEY, v TEXT)")
	mustExec(t, db, "INSERT INTO kvs VALUES ('alpha', '1'), ('beta', '2')")
	if got := rowsToString(mustQuery(t, db, "SELECT v FROM kvs WHERE k = 'beta'")); got != "2\n" {
		t.Fatalf("%q", got)
	}
	if _, err := db.Exec(context.Background(), "INSERT INTO kvs VALUES ('alpha', 'dup')"); err == nil {
		t.Fatal("text pk uniqueness")
	}
	// Range over text PK.
	if got := rowsToString(mustQuery(t, db, "SELECT k FROM kvs WHERE k >= 'b' ORDER BY k")); got != "beta\n" {
		t.Fatalf("%q", got)
	}
}

func TestTypeCoercion(t *testing.T) {
	db := newDB(t, 1)
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, f REAL, s TEXT)")
	// Int into REAL column; numeric string into INTEGER pk.
	mustExec(t, db, "INSERT INTO t VALUES ('7', 3, 42)")
	rows := mustQuery(t, db, "SELECT id, f, s FROM t")
	got := rowsToString(rows)
	if got != "7|3|42\n" {
		t.Fatalf("%q", got)
	}
	r := rows.All()[0]
	if r[0].T != sql.TypeInt || r[1].T != sql.TypeFloat || r[2].T != sql.TypeText {
		t.Fatalf("types: %v %v %v", r[0].T, r[1].T, r[2].T)
	}
	if _, err := db.Exec(context.Background(), "INSERT INTO t VALUES ('not-a-number', 0, '')"); err == nil {
		t.Fatal("bad coercion accepted")
	}
}

func TestParameters(t *testing.T) {
	db := newDB(t, 1)
	setupUsers(t, db)
	rows := mustQuery(t, db, "SELECT name FROM users WHERE age > ? AND city = ? ORDER BY name",
		sql.Int(24), sql.Text("london"))
	if got := rowsToString(rows); got != "bob\nerin\n" {
		t.Fatalf("%q", got)
	}
	if _, err := db.Query(context.Background(), "SELECT ? "); err == nil {
		t.Fatal("missing parameter accepted")
	}
}

func TestManyRowsAcrossSplits(t *testing.T) {
	db := newDB(t, 4)
	mustExec(t, db, "CREATE TABLE big (id INTEGER PRIMARY KEY, data TEXT)")
	const n = 500
	mustExec(t, db, "BEGIN")
	for i := 0; i < n; i++ {
		mustExec(t, db, "INSERT INTO big VALUES (?, ?)", sql.Int(int64(i)), sql.Text(fmt.Sprintf("data-%d", i)))
	}
	mustExec(t, db, "COMMIT")
	if got := rowsToString(mustQuery(t, db, "SELECT count(*) FROM big")); got != "500\n" {
		t.Fatalf("count: %q", got)
	}
	if got := rowsToString(mustQuery(t, db, "SELECT data FROM big WHERE id = 499")); got != "data-499\n" {
		t.Fatalf("point: %q", got)
	}
	if got := rowsToString(mustQuery(t, db, "SELECT count(*) FROM big WHERE id >= 100 AND id < 200")); got != "100\n" {
		t.Fatalf("range: %q", got)
	}
}

func TestFreshCatalogSeesCommittedSchema(t *testing.T) {
	db := newDB(t, 2)
	setupUsers(t, db)
	// A session with its own catalog (fresh caches) must read the
	// schema from the catalog tree and see the data.
	db2 := sql.NewDB(db.Client(), dbt.Config{MaxCells: 16})
	defer db2.Close()
	if got := rowsToString(mustQuery(t, db2, "SELECT count(*) FROM users")); got != "5\n" {
		t.Fatalf("%q", got)
	}
}
