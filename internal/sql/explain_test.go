package sql_test

import (
	"strings"
	"testing"

	"yesquel/internal/sql"
)

func TestExplainAccessPaths(t *testing.T) {
	db := newDB(t, 1)
	setupUsers(t, db)
	mustExec(t, db, "CREATE INDEX idx_city ON users (city)")
	mustExec(t, db, "CREATE UNIQUE INDEX idx_name ON users (name)")
	mustExec(t, db, "CREATE TABLE orders (oid INTEGER PRIMARY KEY, user_id INTEGER)")
	mustExec(t, db, "CREATE INDEX idx_user ON orders (user_id)")

	cases := []struct {
		q    string
		want []string // substrings expected in order-insensitive fashion
	}{
		// Each path says what it will fetch: a point read, or a scan that
		// is bounded above or open-ended, with the row limit handed down
		// to it when every row it yields is a result row.
		{"EXPLAIN SELECT * FROM users WHERE id = 1",
			[]string{"PRIMARY KEY lookup on users (id = ...) (point read)"}},
		{"EXPLAIN SELECT * FROM users WHERE id > 1 AND id < 10",
			[]string{"PRIMARY KEY range scan on users (id > ... AND id < ...) (bounded)"}},
		{"EXPLAIN SELECT * FROM users WHERE id >= 1 LIMIT 5",
			[]string{"PRIMARY KEY range scan on users (id >= ...) (open-ended, limit 5)", "LIMIT"}},
		{"EXPLAIN SELECT * FROM users WHERE id >= 1 LIMIT 5 OFFSET 2",
			[]string{"(open-ended, limit 7)"}},
		// A residual predicate may reject rows, so the limit stays up here.
		{"EXPLAIN SELECT * FROM users WHERE id >= 1 AND age > 3 LIMIT 5",
			[]string{"PRIMARY KEY range scan on users (id >= ...) (open-ended) (row filter: 2 conjuncts)\n"}},
		// So does one that has to see every row first.
		{"EXPLAIN SELECT * FROM users WHERE id >= 1 ORDER BY age LIMIT 5",
			[]string{"(open-ended) (row filter: none — implied by key range)\n", "SORT (1 keys)"}},
		// ORDER BY the primary key is the scan's own order: no sort.
		{"EXPLAIN SELECT * FROM users ORDER BY id LIMIT 3",
			[]string{"FULL SCAN of users (limit 3)"}},
		{"EXPLAIN SELECT * FROM users WHERE city = 'paris'",
			[]string{"INDEX lookup on users via idx_city (city = ...) (bounded)"}},
		{"EXPLAIN SELECT * FROM users WHERE name = 'bob'",
			[]string{"INDEX lookup on users via idx_name (name = ...) (bounded, limit 1)"}},
		{"EXPLAIN SELECT * FROM users WHERE city >= 'a'",
			[]string{"INDEX range scan on users via idx_city (city >= ...) (open-ended)"}},
		{"EXPLAIN SELECT * FROM orders WHERE user_id < 30 LIMIT 2",
			[]string{"INDEX range scan on orders via idx_user (user_id < ...) (bounded, limit 2) (row filter: 1 conjunct)"}},
		// A range bound of another class than the key's keys no range: the
		// executor scans the whole table.
		{"EXPLAIN SELECT * FROM users WHERE id > '5' LIMIT 2",
			[]string{"FULL SCAN of users (row filter: 1 conjunct)"}},
		{"EXPLAIN SELECT * FROM orders WHERE user_id > 30",
			[]string{"via idx_user (user_id > ...) (open-ended) (row filter: 1 conjunct)"}},
		{"EXPLAIN SELECT * FROM users WHERE age = 3",
			[]string{"FULL SCAN of users (row filter: 1 conjunct)\n"}},
		// Left-deep join in FROM order: outer users (no usable
		// predicate at depth 0), inner orders driven by its PK.
		{"EXPLAIN SELECT u.name FROM users u JOIN orders o ON o.user_id = u.id WHERE o.oid = 5",
			[]string{"FULL SCAN of users", "NESTED LOOP JOIN: PRIMARY KEY lookup on orders"}},
		// With the lookup table first, the inner side is driven by the
		// join key through the outer binding.
		{"EXPLAIN SELECT u.name FROM orders o JOIN users u ON u.id = o.user_id",
			[]string{"FULL SCAN of orders", "NESTED LOOP JOIN: PRIMARY KEY lookup on users"}},
		// A join key named without its table is the one table's that has it.
		{"EXPLAIN SELECT u.name FROM orders o JOIN users u ON u.id = user_id",
			[]string{"FULL SCAN of orders", "NESTED LOOP JOIN: PRIMARY KEY lookup on users"}},
		// ORDER BY output column 1, the primary key: no sort, and the scan
		// stops at the limit (the LIMIT line follows the scan's).
		{"EXPLAIN SELECT id FROM users ORDER BY 1 LIMIT 1",
			[]string{"FULL SCAN of users (limit 1) (row filter: 0 conjuncts)\nLIMIT\n"}},
		{"EXPLAIN SELECT city, count(*) FROM users GROUP BY city ORDER BY city LIMIT 3",
			[]string{"FULL SCAN of users", "HASH AGGREGATE", "SORT", "LIMIT"}},
		{"EXPLAIN UPDATE users SET age = 1 WHERE id = 2",
			[]string{"UPDATE via PRIMARY KEY lookup", "secondary index"}},
		{"EXPLAIN DELETE FROM users WHERE city = 'paris'",
			[]string{"DELETE via INDEX lookup"}},
		{"EXPLAIN SELECT 1",
			[]string{"CONSTANT ROW"}},
	}
	for _, tc := range cases {
		rows := mustQuery(t, db, tc.q)
		var plan strings.Builder
		for _, r := range rows.All() {
			plan.WriteString(r[0].S)
			plan.WriteString("\n")
		}
		for _, want := range tc.want {
			if !strings.Contains(plan.String(), want) {
				t.Errorf("%s:\nplan %q\nmissing %q", tc.q, plan.String(), want)
			}
		}
	}
}

// TestExplainRowFilter: each table line ends with what every row the
// path yields is checked against, by the rule the executor follows. A
// primary-key range that stands for all its conjuncts, with bounds of
// the key's own class (a number of either type on a numeric key),
// implies them; anything else keeps its conjuncts — a BETWEEN one of
// whose bounds a comparison overrode among them — and so does every
// index path. A range bound of another class keys no range at all, and
// the line says the table is scanned whole.
func TestExplainRowFilter(t *testing.T) {
	db := newDB(t, 1)
	setupUsers(t, db)
	mustExec(t, db, "CREATE INDEX idx_city ON users (city)")
	mustExec(t, db, "CREATE TABLE kv (k TEXT PRIMARY KEY, v BLOB)")
	mustExec(t, db, "CREATE TABLE orders (oid INTEGER PRIMARY KEY, user_id INTEGER)")
	mustExec(t, db, "CREATE INDEX idx_user ON orders (user_id)")
	const implied, one = "(row filter: none — implied by key range)", "(row filter: 1 conjunct)"
	cases := []struct {
		q    string
		args []sql.Value
		want string
	}{
		{"EXPLAIN SELECT * FROM users WHERE id = 1", nil, "(point read) " + implied},
		{"EXPLAIN SELECT * FROM users WHERE id = ?", []sql.Value{sql.Int(1)}, implied},
		{"EXPLAIN SELECT * FROM users WHERE id = ?", []sql.Value{sql.Text("1")}, one},
		{"EXPLAIN SELECT * FROM users WHERE id = ?", nil, one}, // no argument to judge by
		{"EXPLAIN SELECT * FROM users WHERE id > 1 AND id <= 10", nil, "(bounded) " + implied},
		{"EXPLAIN SELECT * FROM users WHERE id BETWEEN 1 AND 3.0", nil, implied},
		{"EXPLAIN SELECT * FROM users WHERE id >= 1 LIMIT 5", nil, "(open-ended, limit 5) " + implied},
		{"EXPLAIN SELECT * FROM users WHERE id >= 2.5", nil, "(open-ended) " + implied},
		{"EXPLAIN SELECT * FROM users WHERE id > '5'", nil, "FULL SCAN of users " + one},
		{"EXPLAIN SELECT * FROM users WHERE id > '7' AND id < 9", nil, "FULL SCAN of users (row filter: 2 conjuncts)"},
		{"EXPLAIN SELECT * FROM users WHERE id >= 3 AND id BETWEEN 5 AND 10", nil, "(bounded) (row filter: 2 conjuncts)"},
		{"EXPLAIN SELECT * FROM users WHERE id BETWEEN 5 AND 10 AND id <= 7 LIMIT 2", nil, "(bounded) (row filter: 2 conjuncts)"},
		{"EXPLAIN SELECT * FROM users WHERE id = '1'", nil, one},
		{"EXPLAIN SELECT k FROM kv WHERE k >= ? LIMIT 50", []sql.Value{sql.Text("a")}, "(open-ended, limit 50) " + implied},
		{"EXPLAIN SELECT k FROM kv WHERE k >= 5", nil, "FULL SCAN of kv " + one},
		{"EXPLAIN SELECT * FROM users WHERE city = 'paris'", nil, "(bounded) " + one},
		{"EXPLAIN DELETE FROM users WHERE id = 2", nil, implied},
	}
	for _, tc := range cases {
		rows := mustQuery(t, db, tc.q, tc.args...)
		if line := rows.All()[0][0].S; !strings.HasSuffix(line, tc.want) {
			t.Errorf("%s %v:\nplan %q\ndoes not end in %q", tc.q, tc.args, line, tc.want)
		}
	}
	// A join's tables, one line each: a table is planned from, and its rows
	// checked against, the conjuncts decidable once it is bound.
	for _, tc := range []struct {
		q    string
		want []string
	}{
		{"EXPLAIN SELECT u.name FROM users u JOIN orders o ON o.user_id = u.id WHERE u.id = 5", []string{"(point read) " + implied, one}},
		{"EXPLAIN SELECT * FROM orders o JOIN users u ON u.id = o.user_id WHERE o.oid > 3 AND u.age > 20",
			[]string{"(open-ended) " + implied, "PRIMARY KEY lookup on users (id = ...) (point read) (row filter: 2 conjuncts)"}},
	} {
		rows := mustQuery(t, db, tc.q)
		for i, want := range tc.want {
			if line := rows.All()[i][0].S; !strings.HasSuffix(line, want) {
				t.Errorf("%s:\nline %d %q\ndoes not end in %q", tc.q, i, line, want)
			}
		}
	}
}

func TestExplainRejectsDDL(t *testing.T) {
	db := newDB(t, 1)
	if _, err := db.Query(t.Context(), "EXPLAIN CREATE TABLE t (id INTEGER PRIMARY KEY)"); err == nil {
		t.Fatal("EXPLAIN of DDL should fail")
	}
}
