package sql_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"yesquel/internal/clock"
	"yesquel/internal/dbt"
	"yesquel/internal/kv"
	"yesquel/internal/sql"
)

// TestHintedLookupsMatchUnhinted: while writers move rows between the
// values of an indexed column, two sessions sharing a catalog — and so
// the hints either leaves behind — look values up, and every result is
// what a session on a fresh catalog, which has no hints, returns at the
// same snapshot. Run with -race: the hint table is the sessions' shared
// state.
func TestHintedLookupsMatchUnhinted(t *testing.T) {
	const rows, groups = 120, 8
	db := newDB(t, 2)
	c, cfg := db.Client(), dbt.Config{MaxCells: 16}
	ctx := context.Background()
	mustExec(t, db, "CREATE TABLE m (id INTEGER PRIMARY KEY, g INTEGER, u INTEGER, v TEXT)")
	mustExec(t, db, "CREATE INDEX m_g ON m (g)")
	mustExec(t, db, "CREATE UNIQUE INDEX m_u ON m (u)")
	for i := 0; i < rows; i++ {
		mustExec(t, db, "INSERT INTO m VALUES (?, ?, ?, ?)",
			sql.Int(int64(i)), sql.Int(int64(i%groups)), sql.Int(int64(i)), sql.Text(fmt.Sprintf("m%d", i)))
	}

	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			wdb := sql.NewDB(c, cfg)
			defer wdb.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := sql.Int(rng.Int63n(rows))
				var err error
				switch rng.Intn(3) {
				case 0: // to another group
					_, err = wdb.Exec(ctx, "UPDATE m SET g = ? WHERE id = ?", sql.Int(rng.Int63n(groups)), id)
				case 1: // to another unique value: id, id+1000 or id+2000, nobody else's
					_, err = wdb.Exec(ctx, "UPDATE m SET u = ? WHERE id = ?", sql.Int(id.I+1000*rng.Int63n(3)), id)
				case 2: // same values under a new row key, then back
					if _, err = wdb.Exec(ctx, "UPDATE m SET id = ? WHERE id = ?", sql.Int(id.I+10000), id); err == nil {
						_, err = wdb.Exec(ctx, "UPDATE m SET id = ? WHERE id = ?", id, sql.Int(id.I+10000))
					}
				}
				if err != nil && !errors.Is(err, kv.ErrConflict) {
					t.Errorf("writer: %v", err)
					return
				}
			}
		}(int64(w + 1))
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			hinted := sql.NewDBWithCatalog(c, db.Catalog())
			for i := 0; i < 150; i++ {
				q, arg := "SELECT id, g, u, v FROM m WHERE g = ?", sql.Int(rng.Int63n(groups))
				if i%2 == 1 {
					q, arg = "SELECT id, g, u, v FROM m WHERE u = ?", sql.Int(rng.Int63n(rows)+1000*rng.Int63n(2))
				}
				// A snapshot the writers have moved past — past the
				// retention window, or by more commits to one leaf than a
				// store keeps versions of (Config.MaxVersions) — is refused
				// with kv.ErrConflict, by design: the iteration compares
				// again at a fresh one.
				var snap clock.Timestamp
				var got, want string
				var err error
				for try := 0; try < 20; try++ {
					tx := c.Begin()
					snap = tx.Snapshot()
					tx.Abort()
					at := func(s *sql.DB) (string, error) {
						s.BeginAt(snap)
						rows, err := s.Query(ctx, q, arg)
						if _, rerr := s.Exec(ctx, "ROLLBACK"); rerr != nil {
							t.Errorf("ROLLBACK: %v", rerr)
						}
						return rowsToString(rows), err
					}
					fresh := sql.NewDB(c, cfg)
					if got, err = at(hinted); err == nil {
						want, err = at(fresh)
					}
					fresh.Close()
					if !errors.Is(err, kv.ErrConflict) {
						break
					}
				}
				if err != nil {
					t.Errorf("%s [%v]: %v", q, arg, err)
					return
				}
				if got != want {
					t.Errorf("%s [%v] at %v: with hints %q, without %q", q, arg, snap, got, want)
					return
				}
			}
		}(int64(r + 10))
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}

// TestHintedLookupSeesStagedWrites: inside BEGIN … COMMIT a lookup of a
// value whose rows the transaction has written returns the transaction's
// view of them, whatever an earlier lookup left as the hint.
func TestHintedLookupSeesStagedWrites(t *testing.T) {
	db := newDB(t, 2)
	mustExec(t, db, "CREATE TABLE m (id INTEGER PRIMARY KEY, g INTEGER, v TEXT)")
	mustExec(t, db, "CREATE INDEX m_g ON m (g)")
	for i := 0; i < 40; i++ {
		mustExec(t, db, "INSERT INTO m VALUES (?, ?, ?)", sql.Int(int64(i)), sql.Int(int64(i/4)), sql.Text(fmt.Sprintf("m%d", i)))
	}
	lookup := func(g int64) string {
		return rowsToString(mustQuery(t, db, "SELECT id, v FROM m WHERE g = ?", sql.Int(g)))
	}
	before3, before4 := "12|m12\n13|m13\n14|m14\n15|m15\n", "16|m16\n17|m17\n18|m18\n19|m19\n"
	for i := 0; i < 2; i++ { // the second lookup is the hinted one
		if got := lookup(3); got != before3 {
			t.Fatalf("g=3: %q", got)
		}
		if got := lookup(4); got != before4 {
			t.Fatalf("g=4: %q", got)
		}
	}
	mustExec(t, db, "BEGIN")
	if got := lookup(3); got != before3 { // hinted, nothing staged yet
		t.Errorf("g=3 in the transaction: %q", got)
	}
	mustExec(t, db, "UPDATE m SET v = 'staged' WHERE id = 13")
	mustExec(t, db, "UPDATE m SET g = 4 WHERE id = 14")
	mustExec(t, db, "DELETE FROM m WHERE id = 15")
	mustExec(t, db, "INSERT INTO m VALUES (100, 3, 'new')")
	during3, during4 := "12|m12\n13|staged\n100|new\n", "14|m14\n16|m16\n17|m17\n18|m18\n19|m19\n"
	if got := lookup(3); got != during3 {
		t.Errorf("g=3 under staged writes: %q, want %q", got, during3)
	}
	if got := lookup(4); got != during4 {
		t.Errorf("g=4 under staged writes: %q, want %q", got, during4)
	}
	mustExec(t, db, "ROLLBACK")
	if got := lookup(3); got != before3 {
		t.Errorf("g=3 after ROLLBACK: %q", got)
	}
	if got := lookup(4); got != before4 {
		t.Errorf("g=4 after ROLLBACK: %q", got)
	}
}
