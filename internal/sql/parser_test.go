package sql

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) Stmt {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return st
}

func TestParseCreateTable(t *testing.T) {
	st := mustParse(t, `CREATE TABLE users (
		id INTEGER PRIMARY KEY,
		name TEXT NOT NULL,
		score REAL,
		avatar BLOB
	);`).(CreateTable)
	if st.Name != "users" || len(st.Cols) != 4 {
		t.Fatalf("%+v", st)
	}
	if !st.Cols[0].PrimaryKey || st.Cols[0].Type != TypeInt {
		t.Fatalf("pk col: %+v", st.Cols[0])
	}
	if !st.Cols[1].NotNull || st.Cols[1].Type != TypeText {
		t.Fatalf("name col: %+v", st.Cols[1])
	}
	if st.Cols[2].Type != TypeFloat || st.Cols[3].Type != TypeBlob {
		t.Fatalf("types: %+v", st.Cols)
	}
}

func TestParseCreateTableIfNotExistsAndVarchar(t *testing.T) {
	st := mustParse(t, "CREATE TABLE IF NOT EXISTS t (name VARCHAR(255))").(CreateTable)
	if !st.IfNotExists || st.Cols[0].Type != TypeText {
		t.Fatalf("%+v", st)
	}
}

func TestParseCreateIndex(t *testing.T) {
	st := mustParse(t, "CREATE UNIQUE INDEX idx_email ON users (email)").(CreateIndex)
	if !st.Unique || st.Table != "users" || st.Cols[0] != "email" {
		t.Fatalf("%+v", st)
	}
}

func TestParseInsert(t *testing.T) {
	st := mustParse(t, "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)").(Insert)
	if st.Table != "t" || len(st.Cols) != 2 || len(st.Rows) != 2 {
		t.Fatalf("%+v", st)
	}
	if lit := st.Rows[1][1].(Lit); !lit.V.IsNull() {
		t.Fatal("NULL literal")
	}
}

func TestParseInsertParams(t *testing.T) {
	st := mustParse(t, "INSERT INTO t VALUES (?, ?, ?)").(Insert)
	if len(st.Rows[0]) != 3 {
		t.Fatalf("%+v", st)
	}
	for i, e := range st.Rows[0] {
		if p, ok := e.(Param); !ok || p.N != i {
			t.Fatalf("param %d: %+v", i, e)
		}
	}
}

func TestParseSelectFull(t *testing.T) {
	st := mustParse(t, `SELECT u.name AS n, count(*) FROM users u
		JOIN orders o ON o.user_id = u.id
		WHERE u.age >= 18 AND o.total > 10.5
		GROUP BY u.name HAVING count(*) > 2
		ORDER BY n DESC, 2 LIMIT 10 OFFSET 5`).(Select)
	if len(st.Items) != 2 || st.Items[0].Alias != "n" {
		t.Fatalf("items: %+v", st.Items)
	}
	if st.From.Name != "users" || st.From.Alias != "u" {
		t.Fatalf("from: %+v", st.From)
	}
	if len(st.Joins) != 1 || st.Joins[0].Right.Alias != "o" {
		t.Fatalf("joins: %+v", st.Joins)
	}
	if st.Where == nil || len(st.GroupBy) != 1 || st.Having == nil {
		t.Fatalf("%+v", st)
	}
	if len(st.OrderBy) != 2 || !st.OrderBy[0].Desc || st.OrderBy[1].Desc {
		t.Fatalf("order: %+v", st.OrderBy)
	}
	if st.Limit == nil || st.Offset == nil {
		t.Fatal("limit/offset")
	}
}

func TestParseSelectStar(t *testing.T) {
	st := mustParse(t, "SELECT *, t.* FROM t").(Select)
	if _, ok := st.Items[0].E.(Star); !ok {
		t.Fatalf("%+v", st.Items[0])
	}
	if s, ok := st.Items[1].E.(Star); !ok || s.Table != "t" {
		t.Fatalf("%+v", st.Items[1])
	}
}

func TestParseExprPrecedence(t *testing.T) {
	st := mustParse(t, "SELECT 1 + 2 * 3").(Select)
	b := st.Items[0].E.(BinOp)
	if b.Op != "+" {
		t.Fatalf("top op %s", b.Op)
	}
	if r := b.R.(BinOp); r.Op != "*" {
		t.Fatalf("inner op %s", r.Op)
	}
	// AND binds tighter than OR.
	st = mustParse(t, "SELECT 1 WHERE a OR b AND c").(Select)
	w := st.Where.(BinOp)
	if w.Op != "or" {
		t.Fatalf("where top %s", w.Op)
	}
}

var whereOperatorQueries = []string{
	"SELECT 1 FROM t WHERE a = 1",
	"SELECT 1 FROM t WHERE a != 1",
	"SELECT 1 FROM t WHERE a <> 1",
	"SELECT 1 FROM t WHERE a < 1 AND b <= 2 AND c > 3 AND d >= 4",
	"SELECT 1 FROM t WHERE a IS NULL",
	"SELECT 1 FROM t WHERE a IS NOT NULL",
	"SELECT 1 FROM t WHERE a IN (1, 2, 3)",
	"SELECT 1 FROM t WHERE a NOT IN (1, 2)",
	"SELECT 1 FROM t WHERE a BETWEEN 1 AND 10",
	"SELECT 1 FROM t WHERE name LIKE 'a%'",
	"SELECT 1 FROM t WHERE NOT (a = 1)",
	"SELECT 1 FROM t WHERE a = -1",
	"SELECT 1 FROM t WHERE s = 'it''s'",
	"SELECT 1 FROM t WHERE b = x'deadbeef'",
	"SELECT 1 FROM t WHERE a = NOT b",
	"SELECT 1 FROM t WHERE a < 1e+5 AND b > 2.5E-3",
}

func TestParseWhereOperators(t *testing.T) {
	for _, src := range whereOperatorQueries {
		mustParse(t, src)
	}
}

func TestParseUpdateDelete(t *testing.T) {
	up := mustParse(t, "UPDATE t SET a = a + 1, b = 'x' WHERE id = 3").(Update)
	if len(up.Set) != 2 || up.Set[0].Col != "a" || up.Where == nil {
		t.Fatalf("%+v", up)
	}
	del := mustParse(t, "DELETE FROM t").(Delete)
	if del.Table != "t" || del.Where != nil {
		t.Fatalf("%+v", del)
	}
}

func TestParseTransactions(t *testing.T) {
	if _, ok := mustParse(t, "BEGIN").(Begin); !ok {
		t.Fatal("begin")
	}
	if _, ok := mustParse(t, "BEGIN TRANSACTION").(Begin); !ok {
		t.Fatal("begin transaction")
	}
	if _, ok := mustParse(t, "COMMIT").(Commit); !ok {
		t.Fatal("commit")
	}
	if _, ok := mustParse(t, "ROLLBACK").(Rollback); !ok {
		t.Fatal("rollback")
	}
}

var badQueries = []string{
	"",
	"SELEC 1",
	"SELECT",
	"SELECT 1 FROM",
	"CREATE TABLE t",
	"CREATE TABLE t ()",
	"CREATE TABLE t (a WIBBLE)",
	"INSERT INTO t VALUES",
	"INSERT t VALUES (1)",
	"SELECT 1 WHERE 'unterminated",
	"SELECT 1; SELECT 2",
	"UPDATE t SET",
	"SELECT * FROM t WHERE a = @",
	"SELECT x'abc'", // odd hex
	"SELECT x'zz'",  // not hex
	"SELECT x'ab",
	"SELECT \"abc",
	"SELECT 1e",
	"SELECT 99999999999999999999",
	"VALUES (1)",
	"CREATE UNIQUE TABLE t (a INT)",
	"CREATE VIEW v",
	"CREATE TABLE t (a KEY)",
	"DROP VIEW v",
	"SELECT 1 FROM t INNER u",
	"EXPLAIN BEGIN",
}

func TestParseErrors(t *testing.T) {
	for _, src := range badQueries {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	mustParse(t, "select 1 from T where A = 1 order by B desc limit 1")
	// Identifiers are lowercased: T and t refer to the same table.
	st := mustParse(t, "SELECT 1 FROM MyTable").(Select)
	if st.From.Name != "mytable" {
		t.Fatalf("identifier not normalized: %q", st.From.Name)
	}
}

func TestParseComments(t *testing.T) {
	st := mustParse(t, `SELECT 1 -- trailing comment
		FROM t -- another`).(Select)
	if st.From == nil {
		t.Fatal("comment swallowed FROM")
	}
}

// FuzzParse checks that Parse never panics, returns exactly one of a
// statement and an error, and that every error it returns is the
// package's ("sql: ..."). Seeds: the statements above and those the wiki
// and YCSB workloads issue.
func FuzzParse(f *testing.F) {
	seeds := []string{
		`CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT NOT NULL, score REAL, avatar BLOB);`,
		"CREATE TABLE IF NOT EXISTS t (name VARCHAR(255))",
		"CREATE UNIQUE INDEX idx_email ON users (email)",
		"CREATE INDEX IF NOT EXISTS i ON t (a, b)",
		"DROP TABLE IF EXISTS t",
		"DROP INDEX i",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)",
		"INSERT INTO t VALUES (?, ?, ?)",
		`SELECT u.name AS n, count(*) FROM users u
			JOIN orders o ON o.user_id = u.id
			WHERE u.age >= 18 AND o.total > 10.5
			GROUP BY u.name HAVING count(*) > 2
			ORDER BY n DESC, 2 LIMIT 10 OFFSET 5`,
		"SELECT DISTINCT *, t.* FROM t INNER JOIN s AS x ON t.id = x.id ORDER BY 1 ASC",
		"SELECT count(DISTINCT a), sum(b), avg(-c), min(+d), max(e || 'x'), lower(f) FROM t",
		"SELECT 1 + 2 * 3 - 4 / 5 % 6",
		"SELECT 1 WHERE a OR b AND c",
		"SELECT 1 FROM t WHERE a NOT BETWEEN 1 AND 2 AND b NOT LIKE 'x%'",
		"EXPLAIN SELECT * FROM t WHERE id = 1",
		"EXPLAIN UPDATE t SET a = 1",
		"EXPLAIN DELETE FROM t",
		"UPDATE t SET a = a + 1, b = 'x' WHERE id = 3",
		"DELETE FROM t",
		"BEGIN", "BEGIN TRANSACTION", "COMMIT", "ROLLBACK",
		"select 1 from T where A = 1 order by B desc limit 1",
		"SELECT 1 -- trailing comment\n FROM t -- another",
		// The wiki workload's schema and statements.
		"CREATE TABLE page (id INTEGER PRIMARY KEY, title TEXT NOT NULL, latest INTEGER NOT NULL)",
		"CREATE UNIQUE INDEX page_title ON page (title)",
		"CREATE TABLE revision (id INTEGER PRIMARY KEY, page_id INTEGER NOT NULL, content TEXT NOT NULL, author TEXT)",
		"CREATE INDEX rev_page ON revision (page_id)",
		"CREATE TABLE pagelink (id INTEGER PRIMARY KEY, src INTEGER NOT NULL, dst_title TEXT NOT NULL)",
		"CREATE INDEX link_src ON pagelink (src)",
		"INSERT INTO revision VALUES (?, ?, ?, ?)",
		"INSERT INTO page VALUES (?, ?, ?)",
		"INSERT INTO pagelink (id, src, dst_title) VALUES (?, ?, ?)",
		"SELECT id, latest FROM page WHERE title = ?",
		"SELECT content FROM revision WHERE id = ?",
		"SELECT dst_title FROM pagelink WHERE src = ?",
		"SELECT id FROM page WHERE title = ?",
		"UPDATE page SET latest = ? WHERE id = ?",
		// The YCSB workloads' schema and statements.
		"CREATE TABLE usertable (k TEXT PRIMARY KEY, v BLOB)",
		"SELECT v FROM usertable WHERE k = ?",
		"SELECT k, v FROM usertable WHERE k >= ? LIMIT ?",
		"UPDATE usertable SET v = ? WHERE k = ?",
		"INSERT INTO usertable VALUES (?, ?)",
		"SELECT COUNT(*) FROM usertable",
	}
	for _, qs := range [][]string{seeds, whereOperatorQueries, badQueries} {
		for _, q := range qs {
			f.Add(q)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		st, err := Parse(src)
		if (st == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = %#v, %v: want exactly one of a statement and an error", src, st, err)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "sql: ") {
			t.Fatalf("Parse(%q): error %q lacks the sql: prefix", src, err)
		}
	})
}
