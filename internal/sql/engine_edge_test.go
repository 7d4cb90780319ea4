package sql_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"yesquel/internal/dbt"
	"yesquel/internal/sql"
)

func TestThreeWayJoin(t *testing.T) {
	db := newDB(t, 2)
	mustExec(t, db, "CREATE TABLE a (id INTEGER PRIMARY KEY, b_id INTEGER)")
	mustExec(t, db, "CREATE TABLE b (id INTEGER PRIMARY KEY, c_id INTEGER)")
	mustExec(t, db, "CREATE TABLE c (id INTEGER PRIMARY KEY, name TEXT)")
	mustExec(t, db, "INSERT INTO a VALUES (1, 10), (2, 20)")
	mustExec(t, db, "INSERT INTO b VALUES (10, 100), (20, 200)")
	mustExec(t, db, "INSERT INTO c VALUES (100, 'first'), (200, 'second')")
	got := rowsToString(mustQuery(t, db,
		`SELECT a.id, c.name FROM a
		 JOIN b ON b.id = a.b_id
		 JOIN c ON c.id = b.c_id
		 ORDER BY a.id`))
	if got != "1|first\n2|second\n" {
		t.Fatalf("%q", got)
	}
}

func TestJoinNoMatches(t *testing.T) {
	db := newDB(t, 1)
	mustExec(t, db, "CREATE TABLE l (id INTEGER PRIMARY KEY)")
	mustExec(t, db, "CREATE TABLE r (id INTEGER PRIMARY KEY)")
	mustExec(t, db, "INSERT INTO l VALUES (1)")
	// Inner join against an empty table yields nothing.
	if got := rowsToString(mustQuery(t, db, "SELECT * FROM l JOIN r ON r.id = l.id")); got != "" {
		t.Fatalf("%q", got)
	}
}

// TestColumnsResolveBeforeAnyRead: an ambiguous or unknown column in
// WHERE or ON fails the statement before it reads, as in SQLite, whether
// or not a row is ever checked against it — a key range that implies the
// conjunct, or an empty table, does not hide it.
func TestColumnsResolveBeforeAnyRead(t *testing.T) {
	db := newDB(t, 1)
	mustExec(t, db, "CREATE TABLE a (id INTEGER PRIMARY KEY, x INTEGER)")
	mustExec(t, db, "CREATE TABLE b (id INTEGER PRIMARY KEY, y INTEGER)")
	mustExec(t, db, "CREATE TABLE empty (id INTEGER PRIMARY KEY)")
	mustExec(t, db, "INSERT INTO a VALUES (5, 1)")
	mustExec(t, db, "INSERT INTO b VALUES (7, 1)")
	for _, tc := range []struct{ q, want string }{
		{"SELECT * FROM a JOIN b ON a.x = b.y WHERE id = 5", "ambiguous column id"},
		{"SELECT * FROM a JOIN b ON a.x = b.y WHERE id + 0 = 5", "ambiguous column id"},
		{"SELECT * FROM empty WHERE nosuch = 1", "no such column nosuch"},
		{"DELETE FROM empty WHERE empty.nosuch = 1", "no such column empty.nosuch"},
	} {
		if _, err := db.Query(context.Background(), tc.q); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", tc.q, err, tc.want)
		}
	}
}

func TestAggregateOverEmptyGroups(t *testing.T) {
	db := newDB(t, 1)
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, g INTEGER, v INTEGER)")
	// GROUP BY over an empty table: no rows (unlike the no-GROUP-BY
	// case which yields one).
	if got := rowsToString(mustQuery(t, db, "SELECT g, count(*) FROM t GROUP BY g")); got != "" {
		t.Fatalf("grouped empty: %q", got)
	}
	if got := rowsToString(mustQuery(t, db, "SELECT count(*), sum(v), min(v) FROM t")); got != "0|NULL|NULL\n" {
		t.Fatalf("ungrouped empty: %q", got)
	}
}

func TestHavingWithoutGroupBy(t *testing.T) {
	db := newDB(t, 1)
	setupUsers(t, db)
	if got := rowsToString(mustQuery(t, db, "SELECT count(*) FROM users HAVING count(*) > 3")); got != "5\n" {
		t.Fatalf("%q", got)
	}
	if got := rowsToString(mustQuery(t, db, "SELECT count(*) FROM users HAVING count(*) > 10")); got != "" {
		t.Fatalf("%q", got)
	}
	// OR over an aggregate short-circuits as it does in a WHERE: the
	// right side, which would fail, is never evaluated.
	if got := rowsToString(mustQuery(t, db, "SELECT count(*) FROM users HAVING count(*) > 3 OR abs('x') > 0")); got != "5\n" {
		t.Fatalf("%q", got)
	}
	if got := rowsToString(mustQuery(t, db, "SELECT count(*) > 3 OR abs('x') > 0 FROM users")); got != "1\n" {
		t.Fatalf("%q", got)
	}
	// HAVING may name an aggregate by its output alias.
	if got := rowsToString(mustQuery(t, db, "SELECT count(*) AS n FROM users HAVING n > 3")); got != "5\n" {
		t.Fatalf("%q", got)
	}
}

func TestOrderByExpression(t *testing.T) {
	db := newDB(t, 1)
	setupUsers(t, db)
	// Sort by a computed key: ages mod 7 are alice 30->2, bob 25->4,
	// carol 35->0, dave 25->4, erin 40->5; ties break by name.
	got := rowsToString(mustQuery(t, db, "SELECT name FROM users ORDER BY age % 7, name"))
	if got != "carol\nalice\nbob\ndave\nerin\n" {
		t.Fatalf("%q", got)
	}
}

func TestUpdateAllRowsNoWhere(t *testing.T) {
	db := newDB(t, 1)
	setupUsers(t, db)
	res := mustExec(t, db, "UPDATE users SET age = 1")
	if res.RowsAffected != 5 {
		t.Fatalf("affected %d", res.RowsAffected)
	}
	if got := rowsToString(mustQuery(t, db, "SELECT DISTINCT age FROM users")); got != "1\n" {
		t.Fatalf("%q", got)
	}
}

func TestDeleteEverythingThenReuse(t *testing.T) {
	db := newDB(t, 2)
	setupUsers(t, db)
	mustExec(t, db, "DELETE FROM users")
	if got := rowsToString(mustQuery(t, db, "SELECT count(*) FROM users")); got != "0\n" {
		t.Fatalf("%q", got)
	}
	mustExec(t, db, "INSERT INTO users VALUES (1, 'reborn', 1, 'x')")
	if got := rowsToString(mustQuery(t, db, "SELECT name FROM users")); got != "reborn\n" {
		t.Fatalf("%q", got)
	}
}

func TestBlobRoundTrip(t *testing.T) {
	db := newDB(t, 1)
	mustExec(t, db, "CREATE TABLE b (id INTEGER PRIMARY KEY, data BLOB)")
	payload := []byte{0x00, 0xff, 0x10, 0x00, 'a'}
	mustExec(t, db, "INSERT INTO b VALUES (1, ?)", sql.Blob(payload))
	rows := mustQuery(t, db, "SELECT data FROM b WHERE id = 1")
	got := rows.All()[0][0]
	if got.T != sql.TypeBlob || string(got.B) != string(payload) {
		t.Fatalf("blob: %+v", got)
	}
	// Blob literal syntax.
	mustExec(t, db, "INSERT INTO b VALUES (2, x'deadbeef')")
	rows = mustQuery(t, db, "SELECT length(data) FROM b WHERE id = 2")
	if rows.All()[0][0].I != 4 {
		t.Fatalf("blob literal length: %v", rows.All()[0][0])
	}
}

// TestRowsNeverAliasStorage: the rows a SELECT returns are the caller's.
// A BLOB changed in place is changed nowhere outside the Rows it came
// from: not in what a repeat read returns, nor in a row the transaction
// has staged, which COMMIT writes as it was inserted. Inside one Rows,
// values may share bytes: SELECT data, data, or a self-join that reads
// one cell twice, returns one BLOB twice.
func TestRowsNeverAliasStorage(t *testing.T) {
	db := newDB(t, 1)
	mustExec(t, db, "CREATE TABLE b (id INTEGER PRIMARY KEY, data BLOB)")
	mustExec(t, db, "INSERT INTO b VALUES (1, ?)", sql.Blob([]byte("stored")))
	scribble := func(q string) {
		t.Helper()
		for _, row := range mustQuery(t, db, q).All() {
			for i := range row[0].B {
				row[0].B[i] = 'X'
			}
		}
	}
	blob := func(d *sql.DB, id int64) string {
		t.Helper()
		rows := mustQuery(t, d, "SELECT data FROM b WHERE id = ?", sql.Int(id)).All()
		if len(rows) != 1 {
			t.Fatalf("row %d: %d rows", id, len(rows))
		}
		return string(rows[0][0].B)
	}

	scribble("SELECT data FROM b WHERE id = 1")
	scribble("SELECT data FROM b WHERE id >= 0")
	if got := blob(db, 1); got != "stored" {
		t.Fatalf("after a caller changed what it read: %q", got)
	}

	mustExec(t, db, "BEGIN")
	mustExec(t, db, "INSERT INTO b VALUES (2, ?)", sql.Blob([]byte("inserted")))
	scribble("SELECT data FROM b WHERE id = 2")
	scribble("SELECT data FROM b WHERE id >= 2")
	if got := blob(db, 2); got != "inserted" {
		t.Fatalf("staged row after a caller changed what it read: %q", got)
	}
	mustExec(t, db, "COMMIT")
	fresh := sql.NewDB(db.Client(), dbt.Config{MaxCells: 16})
	defer fresh.Close()
	if got := blob(fresh, 2); got != "inserted" {
		t.Fatalf("committed row: %q", got)
	}
}

// TestScannedRowsKeepTheirBytes: a scanned row's TEXT and BLOB values lie
// in the reply frame its cell came in, and the contract of
// TestRowsNeverAliasStorage holds all the same. Every BLOB a statement
// returns is overwritten in place and grown by append; every TEXT value
// in the same Rows is unchanged after, and a repeat read returns the
// stored bytes. The statements cover a point read, a range, SELECT *, a
// projection out of schema order and a self-join.
func TestScannedRowsKeepTheirBytes(t *testing.T) {
	db := newDB(t, 1)
	mustExec(t, db, "CREATE TABLE tb (id INTEGER PRIMARY KEY, name TEXT, data BLOB)")
	const n = 40 // several leaves at MaxCells 16
	name := func(id int64) string { return fmt.Sprintf("name-%d", id) }
	data := func(id int64) string { return fmt.Sprintf("data-%d", id) }
	for id := int64(0); id < n; id++ {
		mustExec(t, db, "INSERT INTO tb VALUES (?, ?, ?)", sql.Int(id), sql.Text(name(id)), sql.Blob([]byte(data(id))))
	}
	for _, q := range []string{
		"SELECT id, name, data FROM tb WHERE id = 7",
		"SELECT id, name, data FROM tb WHERE id >= 3 LIMIT 20",
		"SELECT * FROM tb",
		"SELECT data, name, id FROM tb WHERE id < 30",
		"SELECT a.id, a.name, b.data FROM tb a JOIN tb b ON b.id = a.id",
	} {
		read := func() [][]sql.Value {
			t.Helper()
			rows := mustQuery(t, db, q).All()
			if len(rows) == 0 {
				t.Fatalf("%s: no rows", q)
			}
			return rows
		}
		// check compares every value of rows with what is stored, but for
		// the BLOBs when blobs is false.
		check := func(rows [][]sql.Value, blobs bool) {
			t.Helper()
			for _, row := range rows {
				id := int64(-1)
				for _, v := range row {
					if v.T == sql.TypeInt {
						id = v.I
					}
				}
				for _, v := range row {
					switch {
					case v.T == sql.TypeText && v.S != name(id):
						t.Fatalf("%s: row %d holds the TEXT %q", q, id, v.S)
					case v.T == sql.TypeBlob && blobs && string(v.B) != data(id):
						t.Fatalf("%s: row %d holds the BLOB %q", q, id, v.B)
					}
				}
			}
		}
		rows := read()
		check(rows, true)
		for _, row := range rows {
			for i := range row {
				if row[i].T != sql.TypeBlob {
					continue
				}
				for j := range row[i].B {
					row[i].B[j] = 'X'
				}
				row[i].B = append(row[i].B, "grown past its end"...)
			}
		}
		check(rows, false)
		check(read(), true)
	}
}

// TestNaNIsNull: a NaN made by arithmetic, by parsing text into a REAL
// column, or by sql.Float is stored as NULL, as in SQLite. NaN would
// compare equal to every number while its key sorts at one end of the
// numbers, so an index lookup and a full scan would disagree about it; as
// NULL they agree.
func TestNaNIsNull(t *testing.T) {
	db := newDB(t, 1)
	mustExec(t, db, "CREATE TABLE r (id INTEGER PRIMARY KEY, x REAL)")
	mustExec(t, db, "CREATE INDEX r_x ON r (x)")
	mustExec(t, db, "INSERT INTO r VALUES (1, 1e308 * 10 - 1e308 * 10)")
	mustExec(t, db, "INSERT INTO r VALUES (2, 'NaN')")
	mustExec(t, db, "INSERT INTO r VALUES (3, ?)", sql.Float(math.NaN()))
	mustExec(t, db, "INSERT INTO r VALUES (4, 5), (5, -1.5), (6, 0)")
	if got := rowsToString(mustQuery(t, db, "SELECT id, x FROM r WHERE x IS NULL ORDER BY id")); got != "1|NULL\n2|NULL\n3|NULL\n" {
		t.Fatalf("the NaNs as stored:\n%s", got)
	}
	for _, op := range []string{"=", "<", "<=", ">", ">="} {
		for _, v := range []float64{-1.5, 0, 5} {
			keyed := rowsToString(mustQuery(t, db, "SELECT id FROM r WHERE x "+op+" ? ORDER BY id", sql.Float(v)))
			scanned := rowsToString(mustQuery(t, db, "SELECT id FROM r WHERE x + 0 "+op+" ? ORDER BY id", sql.Float(v)))
			if keyed != scanned {
				t.Errorf("x %s %v: the index finds\n%s\na full scan\n%s", op, v, keyed, scanned)
			}
		}
	}
}

// TestLargeIntegersAgainstReals: an INTEGER beyond 2^53 compares with a
// REAL exactly, and a REAL of 2^63 put in an INTEGER column stays that
// REAL, as in SQLite; an INTEGER PRIMARY KEY refuses it.
func TestLargeIntegersAgainstReals(t *testing.T) {
	ctx := context.Background()
	db := newDB(t, 1)
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, i INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 9007199254740993), (2, 9223372036854775808.0)")
	if got := rowsToString(mustQuery(t, db, "SELECT id FROM t WHERE i > 9007199254740992.0 ORDER BY id")); got != "1\n2\n" {
		t.Errorf("i > 2^53: %q", got)
	}
	if got := rowsToString(mustQuery(t, db, "SELECT i FROM t WHERE id = 2")); got != "9.223372036854776e+18\n" {
		t.Errorf("the REAL 2^63 in an INTEGER column reads back as %q", got)
	}
	if _, err := db.Exec(ctx, "INSERT INTO t VALUES (9223372036854775808.0, 0)"); err == nil || !strings.Contains(err.Error(), "datatype mismatch") {
		t.Errorf("2^63 as an INTEGER PRIMARY KEY: err %v, want a datatype mismatch", err)
	}

	// 2^53 + 1 lies between two REAL keys, and bounds a key range as itself,
	// not as the REAL it rounds to.
	mustExec(t, db, "CREATE TABLE r (x REAL PRIMARY KEY, v TEXT)")
	mustExec(t, db, "INSERT INTO r VALUES (9007199254740992, 'a'), (9007199254740994, 'b')")
	for _, c := range []struct{ q, want string }{
		{"SELECT v FROM r WHERE x >= 9007199254740993", "b\n"},
		{"SELECT v FROM r WHERE x < 9007199254740993", "a\n"},
		{"SELECT v FROM r WHERE x = 9007199254740993", ""},
		{"SELECT v FROM r WHERE x = 9007199254740992", "a\n"},
	} {
		if got := rowsToString(mustQuery(t, db, c.q)); got != c.want {
			t.Errorf("%s: %q, want %q", c.q, got, c.want)
		}
	}
	if res, err := db.Exec(ctx, "UPDATE r SET v = 'c' WHERE x = 9007199254740993"); err != nil || res.RowsAffected != 0 {
		t.Errorf("UPDATE of the REAL key 2^53 + 1 names: %+v, %v; want no row", res, err)
	}
	if got := rowsToString(mustQuery(t, db, "SELECT v FROM r")); got != "a\nb\n" {
		t.Errorf("after the UPDATE: %q", got)
	}
}

func TestNegativeAndFloatKeys(t *testing.T) {
	db := newDB(t, 1)
	mustExec(t, db, "CREATE TABLE n (id INTEGER PRIMARY KEY, v TEXT)")
	for _, id := range []int64{-100, -1, 0, 1, 100} {
		mustExec(t, db, "INSERT INTO n VALUES (?, ?)", sql.Int(id), sql.Text(fmt.Sprint(id)))
	}
	got := rowsToString(mustQuery(t, db, "SELECT id FROM n ORDER BY id"))
	if got != "-100\n-1\n0\n1\n100\n" {
		t.Fatalf("negative key order: %q", got)
	}
	if got := rowsToString(mustQuery(t, db, "SELECT v FROM n WHERE id < 0 ORDER BY id")); got != "-100\n-1\n" {
		t.Fatalf("negative range: %q", got)
	}

	mustExec(t, db, "CREATE TABLE f (x REAL PRIMARY KEY)")
	for _, x := range []float64{-2.5, -0.5, 0, 0.25, 3.75} {
		mustExec(t, db, "INSERT INTO f VALUES (?)", sql.Float(x))
	}
	if got := rowsToString(mustQuery(t, db, "SELECT x FROM f WHERE x >= -1 ORDER BY x")); got != "-0.5\n0\n0.25\n3.75\n" {
		t.Fatalf("float pk range: %q", got)
	}
}

// TestKeyRangesOverMixedNumbers: a key range finds every row its
// predicates admit where an INTEGER column holds the REALs Coerce keeps
// (2.5), whose keys sort among the integers' by value: an INTEGER
// primary key refuses them, as in SQLite, and an index range reads them
// in value order. -0 equals 0 and shares its key.
func TestKeyRangesOverMixedNumbers(t *testing.T) {
	ctx := context.Background()
	db := newDB(t, 1)
	mustExec(t, db, "CREATE TABLE p (id INTEGER PRIMARY KEY)")
	mustExec(t, db, "INSERT INTO p VALUES (1), (2.0)") // 2.0 is the integer 2
	for _, q := range []string{
		"INSERT INTO p VALUES (1.5)",
		"INSERT INTO p VALUES (1e300)",
		"UPDATE p SET id = id + 0.5 WHERE id = 2",
	} {
		if _, err := db.Exec(ctx, q); err == nil || !strings.Contains(err.Error(), "datatype mismatch") {
			t.Errorf("%s: err %v, want a datatype mismatch", q, err)
		}
	}
	if got := rowsToString(mustQuery(t, db, "SELECT id FROM p WHERE id <= 3")); got != "1\n2\n" {
		t.Errorf("integer primary key after refused REALs: %q", got)
	}

	mustExec(t, db, "CREATE TABLE i (k INTEGER PRIMARY KEY, id INTEGER)")
	mustExec(t, db, "CREATE INDEX i_id ON i (id)")
	mustExec(t, db, "INSERT INTO i VALUES (1, 1), (2, 1.5), (3, 2), (4, 2.5), (5, 3), (6, 7.5), (7, NULL)")
	for _, c := range []struct{ q, want string }{
		{"SELECT id FROM i WHERE id <= 3 ORDER BY id", "1\n1.5\n2\n2.5\n3\n"},
		{"SELECT id FROM i WHERE id > 1 AND id < 3 ORDER BY id", "1.5\n2\n2.5\n"},
		{"SELECT id FROM i WHERE id BETWEEN 2 AND 3 ORDER BY id", "2\n2.5\n3\n"},
		{"SELECT id FROM i WHERE id >= 2 ORDER BY id", "2\n2.5\n3\n7.5\n"},
		{"SELECT id FROM i WHERE id <= 3 LIMIT 5", "1\n1.5\n2\n2.5\n3\n"}, // index order is value order
		{"SELECT id FROM i WHERE id = 2.5", "2.5\n"},
	} {
		if got := rowsToString(mustQuery(t, db, c.q)); got != c.want {
			t.Errorf("%s over integer and REAL index keys: %q, want %q", c.q, got, c.want)
		}
	}

	mustExec(t, db, "CREATE TABLE r (x REAL PRIMARY KEY)")
	mustExec(t, db, "INSERT INTO r VALUES (?), (1.0)", sql.Float(math.Copysign(0, -1)))
	for _, c := range []struct{ q, want string }{
		{"SELECT x FROM r WHERE x < 0", ""},
		{"SELECT x FROM r WHERE x >= 0", "-0\n1\n"},
		{"SELECT x FROM r WHERE x <= 0", "-0\n"},
		{"SELECT x FROM r WHERE x = 0", "-0\n"},
	} {
		if got := rowsToString(mustQuery(t, db, c.q)); got != c.want {
			t.Errorf("%s over -0: %q, want %q", c.q, got, c.want)
		}
	}
	if _, err := db.Exec(ctx, "INSERT INTO r VALUES (0.0)"); err == nil || !strings.Contains(err.Error(), "UNIQUE constraint failed") {
		t.Errorf("0 beside -0 in a REAL primary key: err %v", err)
	}
}

// TestEqualNumbersFormOneGroup: an INTEGER and a REAL of one value are
// one value to DISTINCT, COUNT(DISTINCT) and GROUP BY, as in SQLite.
func TestEqualNumbersFormOneGroup(t *testing.T) {
	db := newDB(t, 1)
	mustExec(t, db, "CREATE TABLE m (k INTEGER PRIMARY KEY, a INTEGER, c INTEGER)")
	mustExec(t, db, "INSERT INTO m VALUES (1, 2, 1), (2, 2.5, 0.5)") // a + c is 3, then 3.0
	for _, c := range []struct{ q, want string }{
		{"SELECT DISTINCT a + c FROM m", "3\n"},
		{"SELECT COUNT(DISTINCT a + c) FROM m", "1\n"},
		{"SELECT COUNT(*) FROM m GROUP BY a + c", "2\n"},
	} {
		if got := rowsToString(mustQuery(t, db, c.q)); got != c.want {
			t.Errorf("%s: %q, want %q", c.q, got, c.want)
		}
	}
}

func TestInPredicateUsesValues(t *testing.T) {
	db := newDB(t, 1)
	setupUsers(t, db)
	got := rowsToString(mustQuery(t, db, "SELECT name FROM users WHERE id IN (2, 4, 99) ORDER BY id"))
	if got != "bob\ndave\n" {
		t.Fatalf("%q", got)
	}
	got = rowsToString(mustQuery(t, db, "SELECT name FROM users WHERE id NOT IN (1, 2, 3, 4) ORDER BY id"))
	if got != "erin\n" {
		t.Fatalf("%q", got)
	}
}

func TestStringFunctionsInWhere(t *testing.T) {
	db := newDB(t, 1)
	setupUsers(t, db)
	got := rowsToString(mustQuery(t, db, "SELECT upper(name) FROM users WHERE length(name) = 4 ORDER BY name"))
	if got != "DAVE\nERIN\n" {
		t.Fatalf("%q", got)
	}
}

func TestSelfReferentialUpdate(t *testing.T) {
	db := newDB(t, 1)
	mustExec(t, db, "CREATE TABLE acc (id INTEGER PRIMARY KEY, bal INTEGER)")
	mustExec(t, db, "INSERT INTO acc VALUES (1, 100), (2, 200)")
	mustExec(t, db, "UPDATE acc SET bal = bal * 2 + id")
	got := rowsToString(mustQuery(t, db, "SELECT bal FROM acc ORDER BY id"))
	if got != "201\n402\n" {
		t.Fatalf("%q", got)
	}
}

// TestIndexPathMatchesFullScan is a property test: any predicate must
// produce identical results whether answered through an index or a full
// scan, across random data.
func TestIndexPathMatchesFullScan(t *testing.T) {
	dbIdx := newDB(t, 2)  // with index
	dbScan := newDB(t, 2) // without
	rng := rand.New(rand.NewSource(31))

	for _, db := range []*sql.DB{dbIdx, dbScan} {
		mustExec(t, db, "CREATE TABLE d (id INTEGER PRIMARY KEY, cat INTEGER, score INTEGER)")
	}
	mustExec(t, dbIdx, "CREATE INDEX d_cat ON d (cat)")
	for i := 0; i < 300; i++ {
		cat, score := rng.Intn(10), rng.Intn(50)
		for _, db := range []*sql.DB{dbIdx, dbScan} {
			mustExec(t, db, "INSERT INTO d VALUES (?, ?, ?)",
				sql.Int(int64(i)), sql.Int(int64(cat)), sql.Int(int64(score)))
		}
	}
	queries := []string{
		"SELECT id FROM d WHERE cat = 3 ORDER BY id",
		"SELECT id FROM d WHERE cat = 3 AND score > 25 ORDER BY id",
		"SELECT count(*) FROM d WHERE cat >= 7",
		"SELECT cat, count(*) FROM d WHERE cat BETWEEN 2 AND 5 GROUP BY cat ORDER BY cat",
		"SELECT id FROM d WHERE cat = 99",
		"SELECT sum(score) FROM d WHERE cat < 2",
	}
	for _, q := range queries {
		a := rowsToString(mustQuery(t, dbIdx, q))
		b := rowsToString(mustQuery(t, dbScan, q))
		if a != b {
			t.Errorf("%s:\nindexed %q\nscanned %q", q, a, b)
		}
	}
	// Verify the index path is actually chosen on the indexed side.
	plan := rowsToString(mustQuery(t, dbIdx, "EXPLAIN SELECT id FROM d WHERE cat = 3"))
	if !strings.Contains(plan, "INDEX lookup") {
		t.Fatalf("index not used: %q", plan)
	}
}

func TestConcurrentSessionsSeparateTx(t *testing.T) {
	db1 := newDB(t, 1)
	setupUsers(t, db1)
	db2 := sql.NewDBWithCatalog(db1.Client(), db1.Catalog())

	// Session 2 opens a transaction; session 1's autocommit writes are
	// invisible inside it but visible after it ends.
	mustExec(t, db2, "BEGIN")
	mustQuery(t, db2, "SELECT count(*) FROM users") // pin snapshot
	mustExec(t, db1, "INSERT INTO users VALUES (50, 'zed', 1, 'x')")
	if got := rowsToString(mustQuery(t, db2, "SELECT count(*) FROM users")); got != "5\n" {
		t.Fatalf("snapshot leak: %q", got)
	}
	mustExec(t, db2, "COMMIT")
	if got := rowsToString(mustQuery(t, db2, "SELECT count(*) FROM users")); got != "6\n" {
		t.Fatalf("after commit: %q", got)
	}
}

func TestLimitEarlyTerminationCorrect(t *testing.T) {
	db := newDB(t, 2)
	mustExec(t, db, "CREATE TABLE s (id INTEGER PRIMARY KEY)")
	for i := 0; i < 8; i++ {
		mustExec(t, db, "INSERT INTO s VALUES (?)", sql.Int(int64(i)))
	}
	// A LIMIT the rows run out before, in a table whose root is still a
	// leaf (read whole): the scan ends (it used to re-read the leaf forever).
	if got := rowsToString(mustQuery(t, db, "SELECT id FROM s WHERE id >= 6 LIMIT 5")); got != "6\n7\n" {
		t.Fatalf("%q", got)
	}
	mustExec(t, db, "BEGIN")
	for i := 8; i < 300; i++ {
		mustExec(t, db, "INSERT INTO s VALUES (?)", sql.Int(int64(i)))
	}
	mustExec(t, db, "COMMIT")
	// LIMIT without ORDER BY stops the scan early but must return rows
	// in key order (the scan is ordered).
	got := rowsToString(mustQuery(t, db, "SELECT id FROM s LIMIT 5"))
	if got != "0\n1\n2\n3\n4\n" {
		t.Fatalf("%q", got)
	}
	got = rowsToString(mustQuery(t, db, "SELECT id FROM s WHERE id >= 100 LIMIT 3 OFFSET 2"))
	if got != "102\n103\n104\n" {
		t.Fatalf("%q", got)
	}
}

func TestWideRowsAndLongStrings(t *testing.T) {
	db := newDB(t, 1)
	mustExec(t, db, "CREATE TABLE w (id INTEGER PRIMARY KEY, a TEXT, b TEXT, c TEXT, d TEXT, e TEXT, f TEXT, g TEXT, h TEXT)")
	long := strings.Repeat("x", 10_000)
	mustExec(t, db, "INSERT INTO w VALUES (1, ?, ?, ?, ?, ?, ?, ?, ?)",
		sql.Text(long), sql.Text(long), sql.Text(long), sql.Text(long),
		sql.Text(long), sql.Text(long), sql.Text(long), sql.Text(long))
	rows := mustQuery(t, db, "SELECT length(a) + length(h) FROM w WHERE id = 1")
	if rows.All()[0][0].I != 20_000 {
		t.Fatalf("wide row: %v", rows.All()[0][0])
	}
}

func TestQuotedIdentifiers(t *testing.T) {
	db := newDB(t, 1)
	mustExec(t, db, `CREATE TABLE "select_me" (id INTEGER PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO "select_me" VALUES (7)`)
	if got := rowsToString(mustQuery(t, db, `SELECT id FROM "select_me"`)); got != "7\n" {
		t.Fatalf("%q", got)
	}
}

func TestManyStatementsOneExplicitTx(t *testing.T) {
	db := newDB(t, 2)
	mustExec(t, db, "CREATE TABLE batch (id INTEGER PRIMARY KEY, v INTEGER)")
	ctx := context.Background()
	mustExec(t, db, "BEGIN")
	for i := 0; i < 200; i++ {
		if _, err := db.Exec(ctx, "INSERT INTO batch VALUES (?, ?)", sql.Int(int64(i)), sql.Int(int64(i*i))); err != nil {
			t.Fatal(err)
		}
	}
	// Read own writes mid-transaction.
	if got := rowsToString(mustQuery(t, db, "SELECT count(*) FROM batch")); got != "200\n" {
		t.Fatalf("own writes: %q", got)
	}
	mustExec(t, db, "COMMIT")
	if got := rowsToString(mustQuery(t, db, "SELECT sum(v) FROM batch WHERE id < 5")); got != "30\n" {
		t.Fatalf("%q", got)
	}
}

// TestFailedStatementStagesNothing: a statement that fails a constraint
// leaves an open transaction as it found it — every check runs before
// the first write is staged — so COMMIT commits what the statements
// that succeeded did and nothing of the one that failed. The checks see
// the statement's own plan: two of its rows claiming one key is a
// violation, a key one of its rows gives up is free for another.
func TestFailedStatementStagesNothing(t *testing.T) {
	db := newDB(t, 2)
	ctx := context.Background()
	mustExec(t, db, "CREATE TABLE a (id INTEGER PRIMARY KEY, u TEXT)")
	mustExec(t, db, "CREATE UNIQUE INDEX a_u ON a (u)")
	mustExec(t, db, "INSERT INTO a VALUES (2, 'two'), (3, 'three'), (4, 'four')")
	all := func() string {
		t.Helper()
		return rowsToString(mustQuery(t, db, "SELECT id, u FROM a ORDER BY id"))
	}
	before := all()

	for _, q := range []string{
		"INSERT INTO a VALUES (1, 'x'), (2, 'dup')",   // row 2: primary key taken
		"INSERT INTO a VALUES (1, 'x'), (5, 'three')", // row 2: UNIQUE value taken
		"INSERT INTO a VALUES (1, 'x'), (1, 'y')",     // the statement's own rows share a primary key
		"INSERT INTO a VALUES (1, 'x'), (5, 'x')",     // ... or a UNIQUE value
		"UPDATE a SET u = 'same' WHERE id >= 2",       // second row updated trips over the first
		"UPDATE a SET u = 'four' WHERE id IN (2, 3)",  // taken by a row the statement leaves alone
		"UPDATE a SET id = 4 WHERE id = 2",            // primary key taken
		"UPDATE a SET id = id + 1 WHERE id IN (2, 3)", // 3 -> 4, which row 4 keeps
	} {
		mustExec(t, db, "BEGIN")
		if _, err := db.Exec(ctx, q); err == nil || !strings.Contains(err.Error(), "UNIQUE constraint failed") {
			t.Fatalf("%s: %v, want a UNIQUE violation", q, err)
		}
		if got := all(); got != before {
			t.Errorf("%s failed, yet inside the transaction the table reads\n%swant\n%s", q, got, before)
		}
		mustExec(t, db, "COMMIT")
		if got := all(); got != before {
			t.Errorf("%s failed, yet after COMMIT the table reads\n%swant\n%s", q, got, before)
		}
	}

	// The rows are checked in the order the statement gives them: the
	// first row's stored primary key is the violation reported, not the
	// UNIQUE value the later two share, in a transaction and in auto-commit.
	for _, explicit := range []bool{true, false} {
		if explicit {
			mustExec(t, db, "BEGIN")
		}
		q := "INSERT INTO a VALUES (2, 'x'), (6, 'y'), (7, 'y')"
		if _, err := db.Exec(ctx, q); err == nil || !strings.Contains(err.Error(), "UNIQUE constraint failed: a.id") {
			t.Errorf("%s (explicit %v): %v, want the primary key's violation", q, explicit, err)
		}
		if explicit {
			mustExec(t, db, "COMMIT")
		}
	}

	// What a statement removes is free for what it adds, whatever the
	// order of its rows: every key moves up by one, every value to the
	// next row's.
	mustExec(t, db, "UPDATE a SET id = id + 1")
	if got, want := all(), "3|two\n4|three\n5|four\n"; got != want {
		t.Errorf("after shifting every primary key:\n%swant\n%s", got, want)
	}
	mustExec(t, db, "UPDATE a SET u = 'hold' WHERE id = 5")
	mustExec(t, db, "UPDATE a SET u = 'four' WHERE id = 4")
	mustExec(t, db, "UPDATE a SET id = 9 WHERE id = 3") // the UNIQUE entry moves with its row
	if got, want := all(), "4|four\n5|hold\n9|two\n"; got != want {
		t.Errorf("after moving rows and values:\n%swant\n%s", got, want)
	}
	if got := rowsToString(mustQuery(t, db, "SELECT id FROM a WHERE u = 'two'")); got != "9\n" {
		t.Errorf("lookup by the moved row's UNIQUE value: %q", got)
	}
	if got := rowsToString(mustQuery(t, db, "SELECT id FROM a WHERE u = 'three'")); got != "" {
		t.Errorf("lookup by a value no row has any more: %q", got)
	}
}

// TestWritesOnLeavesDueASplit: no statement fails, or commits in part,
// for the state its leaves are in. Single-row loads in random order leave
// leaves at every fill; a statement that then writes to all of them runs
// once, and an explicit transaction whose rows land on a full leaf and
// on another commits both or neither.
func TestWritesOnLeavesDueASplit(t *testing.T) {
	db := newDB(t, 2) // MaxCells 16
	ctx := context.Background()
	mustExec(t, db, "CREATE TABLE b (id INTEGER PRIMARY KEY, v TEXT)")
	mustExec(t, db, "CREATE INDEX b_v ON b (v)")
	const n = 1500
	for _, id := range rand.New(rand.NewSource(7)).Perm(n) {
		mustExec(t, db, "INSERT INTO b VALUES (?, 'x')", sql.Int(int64(id)))
	}
	if res, err := db.Exec(ctx, "UPDATE b SET v = 'y'"); err != nil || res.RowsAffected != n {
		t.Fatalf("UPDATE of every row: %+v, %v", res, err)
	}
	mustExec(t, db, "BEGIN")
	mustExec(t, db, "INSERT INTO b VALUES (-1, 'l'), (?, 'r')", sql.Int(n))
	for i := 0; i < 40; i++ { // past the limit of whichever leaf holds the top of the table
		mustExec(t, db, "INSERT INTO b VALUES (?, 'r')", sql.Int(int64(n+1+i)))
	}
	mustExec(t, db, "COMMIT")
	if got := rowsToString(mustQuery(t, db, "SELECT COUNT(*) FROM b WHERE v = 'y'")); got != "1500\n" {
		t.Errorf("rows updated: %q", got)
	}
	if got := rowsToString(mustQuery(t, db, "SELECT COUNT(*) FROM b WHERE id < 0 OR id >= ?", sql.Int(n))); got != "42\n" {
		t.Errorf("rows of the explicit transaction: %q, want all 42", got)
	}
}
