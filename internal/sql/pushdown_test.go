package sql_test

import (
	"testing"

	"yesquel/internal/sql"
)

// The ORDER-BY-primary-key pushdown must be invisible except for speed:
// results identical to the sorted path, and early LIMIT termination
// correct.
func TestOrderByPKPushdownCorrect(t *testing.T) {
	db := newDB(t, 2)
	mustExec(t, db, "CREATE TABLE p (id INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, db, "CREATE INDEX p_v ON p (v)")
	// Insert out of order.
	for _, id := range []int64{50, 3, 99, 1, 42, 7, 60, 2} {
		mustExec(t, db, "INSERT INTO p VALUES (?, ?)", sql.Int(id), sql.Int(id%5))
	}
	cases := []struct {
		q    string
		want string
	}{
		{"SELECT id FROM p ORDER BY id", "1\n2\n3\n7\n42\n50\n60\n99\n"},
		{"SELECT id FROM p ORDER BY id LIMIT 3", "1\n2\n3\n"},
		{"SELECT id FROM p ORDER BY id LIMIT 2 OFFSET 2", "3\n7\n"},
		{"SELECT id FROM p WHERE id > 5 ORDER BY id LIMIT 2", "7\n42\n"},
		{"SELECT id FROM p WHERE id BETWEEN 3 AND 50 ORDER BY id", "3\n7\n42\n50\n"},
		// Index-equality access still delivers PK order within the value.
		{"SELECT id FROM p WHERE v = 2 ORDER BY id", "2\n7\n42\n"},
		// DESC must NOT be pushed down (sorted path).
		{"SELECT id FROM p ORDER BY id DESC LIMIT 2", "99\n60\n"},
		// Index range access must NOT skip the sort (index order != pk order).
		{"SELECT id FROM p WHERE v >= 0 ORDER BY id LIMIT 3", "1\n2\n3\n"},
		// Alias-qualified column.
		{"SELECT t.id FROM p t ORDER BY t.id LIMIT 1", "1\n"},
	}
	for _, tc := range cases {
		if got := rowsToString(mustQuery(t, db, tc.q)); got != tc.want {
			t.Errorf("%s:\ngot  %q\nwant %q", tc.q, got, tc.want)
		}
	}
}

// TestOrderByPKPushdownStopsEarly verifies the scan actually terminates
// early: a LIMIT 1 ordered by PK on a big table must read far fewer
// tree nodes than a full materialize-and-sort.
func TestOrderByPKPushdownStopsEarly(t *testing.T) {
	db := newDB(t, 1)
	mustExec(t, db, "CREATE TABLE big (id INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, db, "BEGIN")
	for i := 0; i < 400; i++ {
		mustExec(t, db, "INSERT INTO big VALUES (?, ?)", sql.Int(int64(i)), sql.Int(int64(i)))
	}
	mustExec(t, db, "COMMIT")

	table, err := db.Catalog().GetTable(t.Context(), db.Client().Begin(), "big")
	if err != nil {
		t.Fatal(err)
	}
	statsBefore := table.Tree.Stats()
	for i := 0; i < 10; i++ {
		if got := rowsToString(mustQuery(t, db, "SELECT id FROM big ORDER BY id LIMIT 1")); got != "0\n" {
			t.Fatalf("%q", got)
		}
	}
	statsAfter := table.Tree.Stats()
	reads := statsAfter.NodeReads - statsBefore.NodeReads
	t.Logf("10 LIMIT-1 queries read %d nodes", reads)
	// With MaxCells=16 the table spans ~25+ leaves; a LIMIT-1 query reads
	// one capped window of the first leaf and plans no other, so ten of
	// them read ten nodes (inner nodes are cached from the load).
	if reads > 10 {
		t.Fatalf("LIMIT 1 ordered by pk read %d nodes over 10 queries; early termination broken", reads)
	}
}
