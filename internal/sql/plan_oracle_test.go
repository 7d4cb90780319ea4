package sql_test

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"yesquel/internal/clock"
	"yesquel/internal/cluster"
	"yesquel/internal/dbt"
	"yesquel/internal/kv"
	"yesquel/internal/kv/kvserver"
	"yesquel/internal/sql"
)

var oracleSeed = flag.Int64("oracle.seed", 0, "replay TestPlanOracle with this seed (0: a fresh one)")

// oracleCase is what one draw of the generator runs at one snapshot: a
// statement, or several inside one transaction (the later ones under the
// earlier ones' staged writes), and the tables it writes.
type oracleCase struct {
	stmts  []oracleStmt
	writes []string
}

type oracleStmt struct {
	q    string
	args []sql.Value
	// ref, when set, is q with its key column inside an expression: no
	// access path serves it, so it reads every row and checks each against
	// the predicates, and the rows it returns are the rows q must return.
	ref string
}

func (s oracleStmt) String() string { return fmt.Sprintf("%s %v", s.q, s.args) }

// genOracleCase draws a case from the read budget tables' statement
// shapes (see loadBudgetDB) and from r's, a REAL primary key. Values come
// half of the time from a few hot ones, so lookups repeat and find hints,
// some made stale since.
func genOracleCase(rng *rand.Rand) oracleCase {
	pick := func(n int64) int64 {
		if rng.Intn(2) == 0 {
			return rng.Int63n(12)
		}
		return rng.Int63n(n)
	}
	id := func() sql.Value { return sql.Int(pick(oracleIDs)) }
	u := func() sql.Value { return sql.Int(1000 + pick(oracleIDs)) }
	src := func() sql.Value { return sql.Int(pick(oracleIDs / 5)) }
	n := func(max int64) sql.Value { return sql.Int(1 + rng.Int63n(max)) }
	// x is a bound on r's REAL keys (x = id/4 - 10 for the even ids): an
	// INTEGER, which equals a key, or a REAL, half of which lie between two.
	x := func() sql.Value {
		k := pick(oracleIDs)
		if rng.Intn(2) == 0 {
			return sql.Int(k/4 - 10)
		}
		return sql.Float(float64(k)/4 - 10)
	}
	// srcReal is a REAL bound on l.src, between two of its integers.
	srcReal := func() sql.Value { return sql.Float(float64(pick(oracleIDs/5)) + 0.5) }
	read := func(q string, args ...sql.Value) oracleCase {
		return oracleCase{stmts: []oracleStmt{{q: q, args: args}}}
	}
	// checked is read with a reference statement (see oracleStmt.ref).
	checked := func(q, ref string, args ...sql.Value) oracleCase {
		return oracleCase{stmts: []oracleStmt{{q: q, args: args, ref: ref}}}
	}
	write := func(table, q string, args ...sql.Value) oracleCase {
		return oracleCase{stmts: []oracleStmt{{q: q, args: args}}, writes: []string{table}}
	}
	insertP := func() oracleCase {
		rows := 1 + rng.Intn(8)
		q := "INSERT INTO p VALUES (?, 'new')" + strings.Repeat(", (?, 'new')", rows-1)
		var args []sql.Value
		for i := 0; i < rows; i++ {
			args = append(args, id())
		}
		return write("p", q, args...)
	}
	var shapes = []func() oracleCase{
		func() oracleCase { return read("SELECT v FROM p WHERE id = ?", id()) },
		func() oracleCase {
			lo := pick(oracleIDs)
			return checked("SELECT id, v FROM p WHERE id BETWEEN ? AND ?", "SELECT id, v FROM p WHERE id + 0 BETWEEN ? AND ?",
				sql.Int(lo), sql.Int(lo+rng.Int63n(40)))
		},
		func() oracleCase {
			return checked("SELECT id, v FROM p WHERE id >= ? LIMIT ?", "SELECT id, v FROM p WHERE id + 0 >= ? LIMIT ?", id(), n(60))
		},
		func() oracleCase { return read("SELECT id FROM p ORDER BY id LIMIT ?", n(30)) },
		func() oracleCase { return read("SELECT id, v FROM t WHERE u = ?", u()) },
		func() oracleCase { return read("SELECT id, v FROM l WHERE src = ?", src()) },
		func() oracleCase {
			return read("SELECT id, src FROM l WHERE src >= ? ORDER BY id LIMIT ?", src(), n(20))
		},
		func() oracleCase {
			lo := pick(oracleIDs)
			return read("SELECT l.id, t.u FROM l JOIN t ON t.id = l.src WHERE l.id BETWEEN ? AND ?", sql.Int(lo), sql.Int(lo+rng.Int63n(30)))
		},
		func() oracleCase {
			lo := pick(oracleIDs)
			return checked("SELECT id, v FROM p WHERE id BETWEEN ? AND ? AND v = 'p'", "SELECT id, v FROM p WHERE id + 0 BETWEEN ? AND ? AND v = 'p'",
				sql.Int(lo), sql.Int(lo+rng.Int63n(40)))
		},
		// Bounds of another type than the key's: a REAL bound on an INTEGER
		// key keys a range by its value, a TEXT one keys none, and a full
		// scan under the row filter settles it.
		func() oracleCase {
			return checked("SELECT id, v FROM p WHERE id >= ? LIMIT ?", "SELECT id, v FROM p WHERE id + 0 >= ? LIMIT ?",
				sql.Float(float64(pick(oracleIDs))+0.5), n(60))
		},
		func() oracleCase {
			return checked("SELECT id FROM p WHERE id > ?", "SELECT id FROM p WHERE id + 0 > ?", sql.Text(fmt.Sprint(pick(oracleIDs))))
		},
		func() oracleCase {
			return checked("SELECT id FROM p WHERE id = ?", "SELECT id FROM p WHERE id + 0 = ?", sql.Text(fmt.Sprint(pick(oracleIDs))))
		},
		func() oracleCase {
			bounds := []sql.Value{id(), sql.Null}
			if rng.Intn(2) == 0 {
				bounds[0], bounds[1] = bounds[1], bounds[0]
			}
			return checked("SELECT id FROM p WHERE id BETWEEN ? AND ?", "SELECT id FROM p WHERE id + 0 BETWEEN ? AND ?", bounds...)
		},
		func() oracleCase {
			k := pick(oracleIDs)
			bound := sql.Int(k)
			if rng.Intn(2) == 0 {
				bound = sql.Text(fmt.Sprintf("%03d", k))
			}
			return checked("SELECT k, v FROM s WHERE k >= ? LIMIT ?", "SELECT k, v FROM s WHERE k || '' >= ? LIMIT ?", bound, n(30))
		},
		// A comparison that overrides one of a BETWEEN's bounds: the other
		// still has to be checked.
		func() oracleCase {
			lo := pick(oracleIDs)
			return checked("SELECT id, v FROM p WHERE id >= ? AND id BETWEEN ? AND ? LIMIT ?",
				"SELECT id, v FROM p WHERE id + 0 >= ? AND id + 0 BETWEEN ? AND ? LIMIT ?",
				sql.Int(lo-rng.Int63n(20)), sql.Int(lo), sql.Int(lo+rng.Int63n(40)), n(60))
		},
		func() oracleCase {
			hi := pick(oracleIDs)
			return checked("SELECT id, v FROM p WHERE id <= ? AND id BETWEEN ? AND ?",
				"SELECT id, v FROM p WHERE id + 0 <= ? AND id + 0 BETWEEN ? AND ?",
				sql.Int(hi+rng.Int63n(20)), sql.Int(hi-rng.Int63n(40)), sql.Int(hi))
		},
		// An indexed INTEGER column holding REALs, whose keys sort among the
		// integers' by value.
		func() oracleCase {
			return write("l", "UPDATE l SET src = ? WHERE id = ?", sql.Float(float64(pick(oracleIDs/5))+0.5), id())
		},
		func() oracleCase {
			lo := pick(oracleIDs / 5)
			return checked("SELECT id, src FROM l WHERE src BETWEEN ? AND ? ORDER BY id",
				"SELECT id, src FROM l WHERE src + 0 BETWEEN ? AND ? ORDER BY id", sql.Int(lo), sql.Int(lo+rng.Int63n(10)))
		},
		func() oracleCase {
			return checked("SELECT id, src FROM l WHERE src < ? ORDER BY id", "SELECT id, src FROM l WHERE src + 0 < ? ORDER BY id", srcReal())
		},
		func() oracleCase {
			return checked("SELECT id, src FROM l WHERE src BETWEEN ? AND ? ORDER BY id",
				"SELECT id, src FROM l WHERE src + 0 BETWEEN ? AND ? ORDER BY id", src(), srcReal())
		},
		// A REAL primary key under INTEGER and REAL bounds.
		func() oracleCase {
			return checked("SELECT x, v FROM r WHERE x >= ? AND x < ?", "SELECT x, v FROM r WHERE x + 0 >= ? AND x + 0 < ?", x(), x())
		},
		func() oracleCase {
			return checked("SELECT x, v FROM r WHERE x > ? LIMIT ?", "SELECT x, v FROM r WHERE x + 0 > ? LIMIT ?", x(), n(30))
		},
		func() oracleCase {
			return checked("SELECT x FROM r WHERE x BETWEEN ? AND ?", "SELECT x FROM r WHERE x + 0 BETWEEN ? AND ?", x(), x())
		},
		func() oracleCase {
			return checked("SELECT x FROM r WHERE x <= ? ORDER BY x DESC", "SELECT x FROM r WHERE x + 0 <= ? ORDER BY x + 0 DESC", x())
		},
		func() oracleCase { return read("SELECT x, v FROM r WHERE x = ?", x()) },
		// ORDER BY terms that name output columns: an alias that shadows the
		// primary key, a position, and GROUP BY's position.
		func() oracleCase {
			return checked("SELECT id AS k, 0 - id AS id FROM p ORDER BY id LIMIT ?",
				"SELECT id AS k, 0 - id AS id FROM p ORDER BY 0 - id LIMIT ?", n(30))
		},
		func() oracleCase {
			return checked("SELECT id, v FROM p ORDER BY 1 LIMIT ?", "SELECT id, v FROM p ORDER BY id + 0 LIMIT ?", n(30))
		},
		func() oracleCase {
			return checked("SELECT src, count(*) FROM l WHERE id >= ? GROUP BY 1 ORDER BY 1",
				"SELECT src, count(*) FROM l WHERE id >= ? GROUP BY src ORDER BY src", id())
		},
		// An OR in a HAVING short-circuits: abs(v) fails on every row's TEXT.
		func() oracleCase {
			return checked("SELECT src, count(*) FROM l GROUP BY src HAVING count(*) > 0 OR abs(v) > 0",
				"SELECT src, count(*) FROM l GROUP BY src HAVING count(*) > 0")
		},
		// Output aliases in GROUP BY and HAVING, checked against the
		// expressions they name.
		func() oracleCase {
			return checked("SELECT src AS s, count(*) AS n FROM l WHERE id >= ? GROUP BY s HAVING n > 1 ORDER BY 1",
				"SELECT src, count(*) FROM l WHERE id >= ? GROUP BY src HAVING count(*) > 1 ORDER BY src", id())
		},
		// A join key named without its table.
		func() oracleCase {
			lo := pick(oracleIDs)
			return checked("SELECT l.id, t.u FROM l JOIN t ON t.id = src WHERE l.id BETWEEN ? AND ?",
				"SELECT l.id, t.u FROM l JOIN t ON t.id + 0 = l.src WHERE l.id BETWEEN ? AND ?", sql.Int(lo), sql.Int(lo+rng.Int63n(30)))
		},
		func() oracleCase { return write("r", "INSERT INTO r VALUES (?, 'new')", x()) },
		func() oracleCase { return write("r", "UPDATE r SET v = 'upd' WHERE x = ?", x()) },
		func() oracleCase { return write("r", "DELETE FROM r WHERE x > ? AND x <= ?", x(), x()) },
		insertP,
		func() oracleCase { return write("t", "INSERT INTO t VALUES (?, ?, 'new')", id(), u()) },
		func() oracleCase { return write("t", "UPDATE t SET u = ? WHERE id = ?", u(), id()) },
		func() oracleCase { return write("l", "UPDATE l SET src = ? WHERE id = ?", src(), id()) },
		func() oracleCase {
			lo := pick(oracleIDs)
			return write("p", "UPDATE p SET v = 'upd' WHERE id BETWEEN ? AND ?", sql.Int(lo), sql.Int(lo+rng.Int63n(20)))
		},
		func() oracleCase { return write("p", "DELETE FROM p WHERE id = ?", id()) },
		func() oracleCase { return write("l", "DELETE FROM l WHERE src = ?", src()) },
	}
	// Inside BEGIN: a write, then a statement that reads or probes what it
	// staged.
	begin := func(first oracleCase, then oracleCase) oracleCase {
		return oracleCase{stmts: append(first.stmts, then.stmts...), writes: append(first.writes, then.writes...)}
	}
	if rng.Intn(4) == 0 {
		switch rng.Intn(4) {
		case 0:
			x := u()
			return begin(write("t", "INSERT INTO t VALUES (?, ?, 'staged')", id(), x), read("SELECT id, v FROM t WHERE u = ?", x))
		case 1:
			return begin(write("t", "INSERT INTO t VALUES (?, ?, 'staged')", id(), u()), write("t", "INSERT INTO t VALUES (?, ?, 'staged')", id(), u()))
		case 2:
			s := src()
			return begin(write("l", "UPDATE l SET src = ? WHERE id = ?", s, id()), read("SELECT id, v FROM l WHERE src = ?", s))
		default:
			return begin(insertP(), shapes[rng.Intn(8)]())
		}
	}
	return shapes[rng.Intn(len(shapes))]()
}

// oracleIDs bounds the row keys the generator and the writer use; the
// load fills the even ones.
const oracleIDs = 240

// TestPlanOracle: a plan made from possibly stale client state — routes
// from the inner-node cache, row keys from index hints — costs reads,
// never rows. Each generated case runs three ways at one snapshot: on a
// warm session (inner-node caches and hints shared through its catalog
// with a second session, the two taking turns), on a session with a
// fresh catalog, and on an ablated session, which plans nothing. The
// three must return the same rows and errors and leave their transaction
// in the same state (every cell of the trees written), and the warm one
// must make no more read rounds than the fresh one. A key range, and the
// row filter it may make redundant, must not change rows either: a read
// with a reference statement (oracleStmt.ref) returns what its full scan
// does, and EXPLAIN must print each statement's plan. Between cases another
// client's session applies the case and a burst of inserts and deletes
// of its own, splitting the leaves the warm caches route to. A failure
// prints its seed; -oracle.seed replays it.
func TestPlanOracle(t *testing.T) {
	seed := *oracleSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	cases := 400
	if testing.Short() {
		cases = 100
	}
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	cl, err := cluster.Start(2, kvserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	c, err := cl.NewClient() // the three ways'
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	wc, err := cl.NewClient() // the writer's
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wc.Close() })

	cfg := dbt.Config{MaxCells: 16}
	writer := sql.NewDB(wc, cfg)
	t.Cleanup(writer.Close)
	for _, q := range []string{
		"CREATE TABLE p (id INTEGER PRIMARY KEY, v TEXT)",
		"CREATE TABLE t (id INTEGER PRIMARY KEY, u INTEGER, v TEXT)",
		"CREATE UNIQUE INDEX t_u ON t (u)",
		"CREATE TABLE l (id INTEGER PRIMARY KEY, src INTEGER, v TEXT)",
		"CREATE INDEX l_src ON l (src)",
		"CREATE TABLE s (k TEXT PRIMARY KEY, v TEXT)",
		"CREATE TABLE r (x REAL PRIMARY KEY, v TEXT)",
	} {
		mustExec(t, writer, q)
	}
	for i := int64(0); i < oracleIDs; i += 2 {
		mustExec(t, writer, "INSERT INTO p VALUES (?, 'p')", sql.Int(i))
		mustExec(t, writer, "INSERT INTO t VALUES (?, ?, 't')", sql.Int(i), sql.Int(1000+i))
		mustExec(t, writer, "INSERT INTO l VALUES (?, ?, 'l')", sql.Int(i), sql.Int(i/5))
		mustExec(t, writer, "INSERT INTO s VALUES (?, 's')", sql.Text(fmt.Sprintf("%03d", i)))
		mustExec(t, writer, "INSERT INTO r VALUES (?, 'r')", sql.Float(float64(i)/4-10))
	}

	warmCat := sql.NewCatalog(c, cfg)
	t.Cleanup(warmCat.Close)
	warm := []*sql.DB{sql.NewDBWithCatalog(c, warmCat), sql.NewDBWithCatalog(c, warmCat)}
	ablatedCfg := dbt.NaiveConfig()
	ablatedCfg.MaxCells = cfg.MaxCells
	ablated := sql.NewDB(c, ablatedCfg)
	t.Cleanup(ablated.Close)

	// run executes oc in db at snap and reports what it returned, the
	// state it left and the read rounds it made.
	run := func(db *sql.DB, oc oracleCase, snap clock.Timestamp) (results, state string, rounds uint64) {
		db.BeginAt(snap)
		defer mustExec(t, db, "ROLLBACK")
		before := c.ReadRounds()
		for _, st := range oc.stmts {
			rows, err := db.Query(ctx, st.q, st.args...)
			if err != nil {
				results += "error: " + err.Error() + "\n"
				continue
			}
			results += rowsToString(rows) + "--\n"
		}
		rounds = c.ReadRounds() - before
		for _, name := range oc.writes {
			state += dumpTable(t, db, name)
		}
		return results, state, rounds
	}
	// apply runs q on the writer: a constraint violation is an outcome like
	// any other, and so is a conflict of a COMMIT with a split.
	apply := func(q string, args ...sql.Value) {
		t.Helper()
		if _, err := writer.Exec(ctx, q, args...); err != nil && !errors.Is(err, kv.ErrConflict) &&
			!strings.Contains(err.Error(), "UNIQUE constraint failed") {
			t.Fatalf("writer: %s: %v", q, err)
		}
	}
	var warmRounds, coldRounds uint64
	for i := 0; i < cases && !t.Failed(); i++ {
		oc := genOracleCase(rng)
		snap := c.Begin().Snapshot()
		wRes, wState, wRounds := run(warm[i%2], oc, snap)
		cold := sql.NewDB(c, cfg)
		cRes, cState, cRounds := run(cold, oc, snap)
		cold.Close()
		aRes, aState, _ := run(ablated, oc, snap)
		warmRounds, coldRounds = warmRounds+wRounds, coldRounds+cRounds
		switch {
		case wRes != cRes || wRes != aRes:
			t.Errorf("case %d %v: results differ\nwarm:\n%s\nfresh catalog:\n%s\nablated:\n%s", i, oc.stmts, wRes, cRes, aRes)
		case wState != cState || wState != aState:
			t.Errorf("case %d %v: states differ\nwarm:\n%s\nfresh catalog:\n%s\nablated:\n%s", i, oc.stmts, wState, cState, aState)
		case wRounds > cRounds:
			t.Errorf("case %d %v: %d read rounds warm, %d with a fresh catalog", i, oc.stmts, wRounds, cRounds)
		}
		if st := oc.stmts[0]; len(oc.stmts) == 1 && st.ref != "" {
			ref := oracleCase{stmts: []oracleStmt{{q: st.ref, args: st.args}}}
			if rRes, _, _ := run(ablated, ref, snap); rRes != wRes {
				t.Errorf("case %d %v: rows differ from the full scan's\nwarm:\n%s\nfull scan:\n%s", i, oc.stmts, wRes, rRes)
			}
		}
		// EXPLAIN prints the plan of every statement it covers (SELECT,
		// UPDATE, DELETE): one table line, ending in its row filter, per
		// FROM table.
		for _, st := range oc.stmts {
			if strings.HasPrefix(st.q, "INSERT") {
				continue
			}
			rows, err := ablated.Query(ctx, "EXPLAIN "+st.q, st.args...)
			if err != nil {
				t.Errorf("case %d: EXPLAIN %v: %v", i, st, err)
				continue
			}
			tables := 0
			for _, r := range rows.All() {
				if strings.Contains(r[0].S, "(row filter: ") {
					tables++
				}
			}
			if want := 1 + strings.Count(st.q, " JOIN "); tables != want {
				t.Errorf("case %d: EXPLAIN %v: %d table lines, want %d\n%s", i, st, tables, want, rowsToString(rows))
			}
		}

		// The case for real, then a burst of the writer's own.
		if len(oc.stmts) > 1 {
			apply("BEGIN")
		}
		for _, st := range oc.stmts {
			apply(st.q, st.args...)
		}
		if len(oc.stmts) > 1 {
			apply("COMMIT")
		}
		for j := rng.Intn(6); j > 0; j-- {
			k := rng.Int63n(oracleIDs)
			switch rng.Intn(4) {
			case 0:
				apply("DELETE FROM p WHERE id = ?", sql.Int(k))
			case 1:
				apply("INSERT INTO l VALUES (?, ?, 'w')", sql.Int(k), sql.Int(k/5))
			default:
				apply("INSERT INTO p VALUES (?, 'w'), (?, 'w')", sql.Int(k), sql.Int((k+1)%oracleIDs))
			}
		}
	}
	t.Logf("%d cases: %d read rounds warm, %d with a fresh catalog", cases, warmRounds, coldRounds)
	if t.Failed() {
		t.Logf("seed %d; replay with go test ./internal/sql -run TestPlanOracle -oracle.seed=%d", seed, seed)
	}
}

// dumpTable renders every cell of name's trees — rows and index entries —
// as db's open transaction sees them.
func dumpTable(t *testing.T, db *sql.DB, name string) string {
	t.Helper()
	ctx := context.Background()
	table, err := db.Catalog().GetTable(ctx, db.Tx(), name)
	if err != nil {
		t.Fatalf("GetTable(%s): %v", name, err)
	}
	var sb strings.Builder
	for _, tree := range append([]*dbt.Tree{table.Tree}, table.IndexTrees...) {
		cells, err := tree.Scan(ctx, db.Tx(), nil, -1)
		if err != nil {
			t.Fatalf("scan of %s: %v", name, err)
		}
		for _, cell := range cells {
			fmt.Fprintf(&sb, "%q=%q\n", cell.Key, cell.Value)
		}
		sb.WriteString("--\n")
	}
	return sb.String()
}
