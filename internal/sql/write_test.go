package sql_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"yesquel/internal/cluster"
	"yesquel/internal/dbt"
	"yesquel/internal/kv/kvserver"
	"yesquel/internal/sql"
)

// newDBWith starts a cluster of servers and opens a session over it with
// the given tree configuration.
func newDBWith(t *testing.T, servers int, cfg dbt.Config) *sql.DB {
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
	db := sql.NewDB(c, cfg)
	t.Cleanup(db.Close)
	return db
}

// tableTrees returns db's handles to a table's tree and its index trees.
func tableTrees(t *testing.T, db *sql.DB, name string) []*dbt.Tree {
	t.Helper()
	tx := db.Client().Begin()
	defer tx.Abort()
	table, err := db.Catalog().GetTable(context.Background(), tx, name)
	if err != nil {
		t.Fatal(err)
	}
	return append([]*dbt.Tree{table.Tree}, table.IndexTrees...)
}

// checkTrees runs dbt.Check on every tree of the named tables and
// returns their cells, tree by tree, as text.
func checkTrees(t *testing.T, db *sql.DB, tables ...string) string {
	t.Helper()
	ctx := context.Background()
	var sb strings.Builder
	for _, name := range tables {
		for i, tree := range tableTrees(t, db, name) {
			tx := db.Client().Begin()
			res, err := tree.Check(ctx, tx)
			if err != nil {
				t.Fatalf("%s tree %d: %v", name, i, err)
			}
			cells, err := tree.Scan(ctx, tx, nil, -1)
			tx.Abort()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "%s tree %d, %d cells:\n", name, i, res.Cells)
			for _, c := range cells {
				fmt.Fprintf(&sb, "  %x = %x\n", c.Key, c.Value)
			}
		}
	}
	return sb.String()
}

// TestConcurrentUniqueInsert: two transactions that each insert the same
// UNIQUE value under different primary keys cannot both commit. Each
// finds the value free at its own snapshot, and their index entries are
// different cells, so only the uniqueness compare each commit carries —
// checked at the newest version under the index leaf's lock — can stop
// the second. In auto-commit, concurrent sessions race on every value,
// first while the index is one leaf that every write reads (the read
// path), then once it has inner nodes to route by (no read).
func TestConcurrentUniqueInsert(t *testing.T) {
	ctx := context.Background()
	t.Run("explicit", func(t *testing.T) {
		a := newDB(t, 2)
		b := sql.NewDB(a.Client(), dbt.Config{MaxCells: 16})
		t.Cleanup(b.Close)
		mustExec(t, a, "CREATE TABLE t (id INTEGER PRIMARY KEY, email TEXT)")
		mustExec(t, a, "CREATE UNIQUE INDEX t_email ON t (email)")
		mustExec(t, a, "BEGIN")
		mustExec(t, b, "BEGIN")
		mustExec(t, a, "INSERT INTO t VALUES (1, 'a@x.com')")
		mustExec(t, b, "INSERT INTO t VALUES (2, 'a@x.com')")
		mustExec(t, a, "COMMIT")
		if _, err := b.Exec(ctx, "COMMIT"); err == nil || !strings.Contains(err.Error(), "UNIQUE constraint failed: t.email") {
			t.Fatalf("second COMMIT of a@x.com: %v", err)
		}
		if got := rowsToString(mustQuery(t, a, "SELECT id FROM t WHERE email = 'a@x.com'")); got != "1\n" {
			t.Fatalf("rows holding a@x.com: %q", got)
		}
		mustExec(t, b, "INSERT INTO t VALUES (2, 'b@x.com')")
	})
	t.Run("autocommit", func(t *testing.T) {
		const sessions, values = 4, 40
		first := newDB(t, 2)
		mustExec(t, first, "CREATE TABLE t (id INTEGER PRIMARY KEY, email TEXT)")
		mustExec(t, first, "CREATE UNIQUE INDEX t_email ON t (email)")
		dbs := []*sql.DB{first}
		for len(dbs) < sessions {
			db := sql.NewDBWithCatalog(first.Client(), first.Catalog())
			dbs = append(dbs, db)
		}
		for v := 0; v < values; v++ {
			email := sql.Text(fmt.Sprintf("e%03d@x.com", v))
			var wg sync.WaitGroup
			errs := make([]error, sessions)
			start := make(chan struct{})
			for i, db := range dbs {
				wg.Add(1)
				go func(i int, db *sql.DB) {
					defer wg.Done()
					<-start
					_, errs[i] = db.Exec(ctx, "INSERT INTO t VALUES (?, ?)", sql.Int(int64(v*sessions+i)), email)
				}(i, db)
			}
			close(start)
			wg.Wait()
			won := 0
			for _, err := range errs {
				switch {
				case err == nil:
					won++
				case !strings.Contains(err.Error(), "UNIQUE constraint failed: t.email"):
					t.Fatalf("insert of %v: %v", email, err)
				}
			}
			if got := mustQuery(t, first, "SELECT id FROM t WHERE email = ?", email).Len(); won != 1 || got != 1 {
				t.Fatalf("%v: %d inserts succeeded, %d rows hold it", email, won, got)
			}
		}
		checkTrees(t, first, "t")
	})
}

// TestWriteAfterStaleRoute: a handle whose cache still routes by a parent
// from before another handle split the leaf stages its write on the old
// leaf; the route compare fails the commit, the statement falls back to
// the read path, and the write lands where it belongs, with the
// RowsAffected the read path reports.
func TestWriteAfterStaleRoute(t *testing.T) {
	ctx := context.Background()
	a := newDB(t, 2)
	b := sql.NewDB(a.Client(), dbt.Config{MaxCells: 16})
	t.Cleanup(b.Close)
	mustExec(t, a, "CREATE TABLE p (id INTEGER PRIMARY KEY, v TEXT)")
	for i := 0; i < 40; i++ {
		mustExec(t, a, "INSERT INTO p VALUES (?, 'a')", sql.Int(int64(i)))
	}
	// a caches the root; b then grows and splits the last leaf under it.
	mustQuery(t, a, "SELECT v FROM p WHERE id = 39")
	for i := 40; i < 80; i++ {
		mustExec(t, b, "INSERT INTO p VALUES (?, 'b')", sql.Int(int64(i)))
	}
	tree := tableTrees(t, a, "p")[0]
	before := tree.Stats().BackDowns
	for _, c := range []struct {
		q        string
		affected int64
		err      string
	}{
		{"UPDATE p SET v = 'u' WHERE id = 75", 1, ""},
		{"UPDATE p SET v = 'u' WHERE id = 999", 0, ""},
		{"DELETE FROM p WHERE id = 76", 1, ""},
		{"DELETE FROM p WHERE id = 76", 0, ""},
		{"INSERT INTO p VALUES (77, 'i')", 0, "UNIQUE constraint failed: p.id"},
		{"INSERT INTO p VALUES (80, 'i')", 1, ""},
	} {
		res, err := a.Exec(ctx, c.q)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Fatalf("%s: %v, want %s", c.q, err, c.err)
			}
			continue
		}
		if err != nil || res.RowsAffected != c.affected {
			t.Fatalf("%s: RowsAffected %d, %v; want %d", c.q, res.RowsAffected, err, c.affected)
		}
	}
	if tree.Stats().BackDowns == before {
		t.Error("no write met the stale route")
	}
	if got := rowsToString(mustQuery(t, b, "SELECT id, v FROM p WHERE id >= 74 ORDER BY id")); got != "74|b\n75|u\n77|b\n78|b\n79|b\n80|i\n" {
		t.Errorf("rows 74 on: %q", got)
	}
	checkTrees(t, a, "p")
}

// TestWriteOracle runs one seeded mix of INSERT, UPDATE and DELETE on two
// clusters: through a default handle, whose writes are staged by routing
// wherever the cache allows (with a small MaxCells, leaves fill and
// routes go stale often), and through a NoCache handle, which never
// routes and so always reads first — the read path, the oracle. Every
// statement must report the same RowsAffected and the same error on
// both, and the tables, their indexes and the trees' invariants must
// agree at the end.
func TestWriteOracle(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 3; seed++ {
		routed := newDBWith(t, 2, dbt.Config{MaxCells: 8})
		oracle := newDBWith(t, 2, dbt.Config{MaxCells: 8, NoCache: true})
		for _, db := range []*sql.DB{routed, oracle} {
			mustExec(t, db, "CREATE TABLE p (id INTEGER PRIMARY KEY, v TEXT NOT NULL)")
			mustExec(t, db, "CREATE TABLE u (id INTEGER PRIMARY KEY, email TEXT, n INTEGER)")
			mustExec(t, db, "CREATE UNIQUE INDEX u_email ON u (email)")
			mustExec(t, db, "CREATE INDEX u_n ON u (n)")
			mustExec(t, db, "CREATE TABLE q (id INTEGER PRIMARY KEY, a TEXT, b INTEGER)")
		}
		r := rand.New(rand.NewSource(seed))
		id := func() sql.Value { return sql.Int(int64(r.Intn(60))) }
		// realID names the same rows as a REAL, which the key equality
		// takes as the INTEGER it equals.
		realID := func() sql.Value { return sql.Float(float64(r.Intn(60))) }
		text := func() sql.Value {
			if r.Intn(10) == 0 {
				return sql.Null
			}
			return sql.Text(fmt.Sprintf("s%d", r.Intn(30)))
		}
		const steps = 300
		unread := 0
		for step := 0; step < steps; step++ {
			var q string
			var args []sql.Value
			switch r.Intn(14) {
			case 0, 1:
				q, args = "INSERT INTO p VALUES (?, ?)", []sql.Value{id(), text()}
			case 2:
				q, args = "INSERT INTO p VALUES (?, ?), (?, ?), (?, ?)", []sql.Value{id(), text(), id(), text(), id(), text()}
			case 3:
				q, args = "UPDATE p SET v = ? WHERE id = ?", []sql.Value{text(), id()}
			case 4:
				q, args = "DELETE FROM p WHERE id = ?", []sql.Value{id()}
			case 5:
				q, args = "UPDATE p SET v = v || 'x' WHERE id = ?", []sql.Value{id()}
			case 6:
				q, args = "INSERT INTO u VALUES (?, ?, ?)", []sql.Value{id(), text(), sql.Int(int64(r.Intn(5)))}
			case 7:
				q, args = "UPDATE u SET email = ? WHERE id = ?", []sql.Value{text(), id()}
			case 8:
				q, args = "UPDATE p SET v = ? WHERE id = ?", []sql.Value{text(), realID()}
			case 9:
				q, args = "INSERT INTO q VALUES (?, ?, ?)", []sql.Value{id(), text(), id()}
			case 10:
				q, args = "UPDATE q SET b = ?, a = ? WHERE id = ?", []sql.Value{id(), text(), id()}
			case 11:
				// Sets one column twice and leaves b: b must be read.
				q, args = "UPDATE q SET a = ?, a = ? WHERE id = ?", []sql.Value{text(), text(), id()}
			case 12:
				q, args = "UPDATE q SET id = ?, a = ?, b = ? WHERE id = ?", []sql.Value{id(), text(), id(), id()}
			default:
				q, args = "DELETE FROM u WHERE id = ?", []sql.Value{id()}
			}
			rounds := routed.Client().ReadRounds()
			got, gotErr := routed.Exec(ctx, q, args...)
			if routed.Client().ReadRounds() == rounds {
				unread++
			}
			want, wantErr := oracle.Exec(ctx, q, args...)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got != want {
				t.Fatalf("seed %d step %d: %s %v: routed %+v, %v; read path %+v, %v", seed, step, q, args, got, gotErr, want, wantErr)
			}
		}
		for _, q := range []string{"SELECT * FROM p ORDER BY id", "SELECT * FROM u ORDER BY id", "SELECT * FROM q ORDER BY id"} {
			if got, want := rowsToString(mustQuery(t, routed, q)), rowsToString(mustQuery(t, oracle, q)); got != want {
				t.Fatalf("seed %d: %s:\nrouted\n%s\nread path\n%s", seed, q, got, want)
			}
		}
		if got, want := checkTrees(t, routed, "p", "u", "q"), checkTrees(t, oracle, "p", "u", "q"); got != want {
			t.Fatalf("seed %d: trees differ:\nrouted\n%s\nread path\n%s", seed, got, want)
		}
		t.Logf("seed %d: %d of %d statements read nothing", seed, unread, steps)
		if unread < steps/5 {
			t.Errorf("seed %d: only %d of %d statements wrote without reading", seed, unread, steps)
		}
	}
}

// TestNoNodeOverLimitWhenBlindCommitReturns is dbt's
// TestNoNodeOverLimitWhenCommitReturns for writes staged by routing:
// 8-row INSERTs whose keys are spread over the tree, so that most
// statements are routed by the cache, commit without a read and grow
// several leaves at once. When each statement returns, no node is over
// MaxCells: its writer split every leaf its commit reply said it grew past
// the limit, and what those splits overflowed. (Where a blind commit
// fails instead, its statement reruns on the read path, whose Put splits
// what it grows: the contract holds there too.)
func TestNoNodeOverLimitWhenBlindCommitReturns(t *testing.T) {
	db := newDBWith(t, 2, dbt.Config{MaxCells: 4})
	ctx := context.Background()
	mustExec(t, db, "CREATE TABLE r (id INTEGER PRIMARY KEY, v TEXT)")
	tree := tableTrees(t, db, "r")[0]
	insert := "INSERT INTO r VALUES (?, ?)" + strings.Repeat(", (?, ?)", 7)
	rng := rand.New(rand.NewSource(1))
	taken := make(map[int64]bool)
	blind := 0
	const stmts = 40
	for i := 0; i < stmts; i++ {
		args := make([]sql.Value, 0, 16)
		for len(args) < 16 {
			if k := rng.Int63n(1 << 20); !taken[k] {
				taken[k] = true
				args = append(args, sql.Int(k), sql.Text("v"))
			}
		}
		descents := tree.Stats().Descents
		mustExec(t, db, insert, args...)
		if tree.Stats().Descents == descents {
			blind++
		}
		tx := db.Client().Begin()
		res, err := tree.Check(ctx, tx)
		tx.Abort()
		if err != nil {
			t.Fatalf("Check after statement %d: %v", i, err)
		}
		if res.Cells != 8*(i+1) || res.MaxLeafCells > 4 || res.MaxFanout > 4 {
			t.Fatalf("after statement %d: %d cells, a leaf of %d cells, an inner node of %d children; want %d cells, MaxCells 4",
				i, res.Cells, res.MaxLeafCells, res.MaxFanout, 8*(i+1))
		}
	}
	t.Logf("%d of %d statements blind, %d splits", blind, stmts, tree.Stats().SplitsDone)
}

// TestBlindLoadSplitsInOneRound: a sequential load in 8-row INSERTs from
// one session is routed by the cache throughout — the root while it is a
// leaf, then the leaves its inner nodes name — and a leaf that fills
// costs its split and nothing else. No statement falls back to the read
// path, where a blind commit that failed (on the leaf's cell cap, or a
// route compare) would send it, and which is the only way such a
// statement descends; and each split reads what it needs in one round.
func TestBlindLoadSplitsInOneRound(t *testing.T) {
	db := newDBWith(t, 2, dbt.Config{MaxCells: 16})
	ctx := context.Background()
	mustExec(t, db, "CREATE TABLE s (id INTEGER PRIMARY KEY, v TEXT)")
	insert := "INSERT INTO s VALUES (?, ?)" + strings.Repeat(", (?, ?)", 7)
	load := func(first int) {
		args := make([]sql.Value, 0, 16)
		for k := first; k < first+8; k++ {
			args = append(args, sql.Int(int64(k)), sql.Text("loaded"))
		}
		mustExec(t, db, insert, args...)
	}
	load(0) // the session's first statement reads the root: it has not seen it yet
	tree := tableTrees(t, db, "s")[0]
	before, rounds := tree.Stats(), db.Client().ReadRounds()
	const stmts = 100
	for i := 1; i < stmts; i++ {
		load(8 * i)
	}
	after := tree.Stats()
	rounds = db.Client().ReadRounds() - rounds
	splits := after.SplitsDone - before.SplitsDone
	t.Logf("%d statements: %d splits, %d read rounds, %d descents", stmts-1, splits, rounds, after.Descents-before.Descents)
	if d := after.Descents - before.Descents; d != 0 {
		t.Errorf("%d descents: statements fell back to the read path", d)
	}
	if splits == 0 {
		t.Fatal("a load of 800 rows under MaxCells 16 made no split")
	}
	if rounds > splits {
		t.Errorf("%d read rounds for %d splits: a split reads in one round, and a blind statement reads nothing", rounds, splits)
	}
	tx := db.Client().Begin()
	defer tx.Abort()
	if res, err := tree.Check(ctx, tx); err != nil || res.Cells != 8*stmts || res.MaxLeafCells > 16 || res.MaxFanout > 16 {
		t.Fatalf("Check after the load: %+v, %v; want %d cells, no node over 16", res, err, 8*stmts)
	}
}
