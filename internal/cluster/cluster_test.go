package cluster_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"yesquel/internal/cluster"
	"yesquel/internal/core"
	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
	"yesquel/internal/kv/kvserver"
)

// TestMisroutedRequestFailsInOneRound: an OID's group is its slot
// modulo the group count, fixed at formation, so each primary serves its
// own slots and refuses the other's with kv.ErrWrongSlot, and a client
// configured with the groups in the wrong order gets that refusal on its
// first round, for a read and a commit alike: there is nothing to retry
// under.
func TestMisroutedRequestFailsInOneRound(t *testing.T) {
	cl, err := cluster.StartReplicated(2, 1, kvserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for route := range cl.Groups {
		oid := kv.MakeOID(uint16(route), 1)
		for gi, g := range cl.Groups {
			err := g.Primary.Store().CheckClientSlot(oid)
			if gi == route && err != nil {
				t.Errorf("group %d rejects its own route %d: %v", gi, route, err)
			} else if gi != route && !errors.Is(err, kv.ErrWrongSlot) {
				t.Errorf("group %d accepts route %d owned by group %d: %v", gi, route, route, err)
			}
		}
	}
	rejects := cl.Stats().WrongSlotRejects

	// Slot 0 is group 0's, but this client sends it to group 1.
	c, err := kvclient.OpenReplicated([][]string{cl.Groups[1].Addrs, cl.Groups[0].Addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	oid := kv.MakeOID(0, 7)
	start := time.Now()
	tx := c.Begin()
	rounds := c.ReadRounds()
	if _, err := tx.Read(ctx, oid); !errors.Is(err, kv.ErrWrongSlot) {
		t.Fatalf("misrouted read: err = %v, want ErrWrongSlot", err)
	}
	if got := c.ReadRounds() - rounds; got != 1 {
		t.Errorf("misrouted read took %d rounds, want 1", got)
	}
	tx.Abort()
	tx = c.Begin()
	tx.Put(oid, kv.NewPlain([]byte("x")))
	if err := tx.Commit(ctx); !errors.Is(err, kv.ErrWrongSlot) {
		t.Fatalf("misrouted commit: err = %v, want ErrWrongSlot", err)
	}
	if got := cl.Stats().WrongSlotRejects - rejects; got != 2 {
		t.Errorf("servers refused %d misrouted requests, want 2 (one read, one commit)", got)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("the misrouted read and commit took %v", took)
	}
}

// TestMisroutingFailsOnEveryClientPath runs the refusal through the
// client paths that fan out: a read batch whose items span two groups
// and a two-phase commit. The client swaps groups 0 and 1 and keeps
// group 2 where it belongs, so each path reaches one group that refuses
// and one that serves. The batch fails in its one round even though its
// other group answered. The commit fails too, and the participant that
// voted yes is aborted, leaving no lock behind.
func TestMisroutingFailsOnEveryClientPath(t *testing.T) {
	cl, err := cluster.StartReplicated(3, 1, kvserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := kvclient.OpenReplicated([][]string{cl.Groups[1].Addrs, cl.Groups[0].Addrs, cl.Groups[2].Addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rejects := cl.Stats().WrongSlotRejects
	misrouted, routed := kv.MakeOID(0, 7), kv.MakeOID(2, 7)

	tx := c.Begin()
	rounds := c.ReadRounds()
	items := []kv.ReadBatchItem{{OID: misrouted}, {OID: kv.MakeOID(0, 8)}, {OID: routed}}
	if _, err := tx.ReadBatch(ctx, items); !errors.Is(err, kv.ErrWrongSlot) {
		t.Fatalf("read batch over slots 0 and 2: err = %v, want ErrWrongSlot", err)
	}
	if got := c.ReadRounds() - rounds; got != 1 {
		t.Errorf("read batch took %d rounds, want 1", got)
	}
	tx.Abort()

	tx = c.Begin()
	tx.Put(misrouted, kv.NewPlain([]byte("x")))
	tx.Put(routed, kv.NewPlain([]byte("y")))
	if err := tx.Commit(ctx); !errors.Is(err, kv.ErrWrongSlot) {
		t.Fatalf("two-phase commit over slots 0 and 2: err = %v, want ErrWrongSlot", err)
	}
	if cl.Groups[2].Primary.Store().IsLocked(routed) {
		t.Error("group 2 still holds the lock of a refused two-phase commit")
	}
	if got := cl.Stats().WrongSlotRejects - rejects; got != 2 {
		t.Errorf("servers refused %d misrouted requests, want 2 (one read batch, one prepare)", got)
	}
}

// TestClusterRestartWithWAL exercises whole-cluster durability: a SQL
// database written before a full restart is intact afterwards.
func TestClusterRestartWithWAL(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	cfg := kvserver.Config{LogPath: dir, LogSync: false}

	cl, err := cluster.Start(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	yc, err := core.Connect(cl.Addrs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db := yc.Session()
	for _, q := range []string{
		"CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)",
		"CREATE INDEX t_v ON t (v)",
		"INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'one')",
	} {
		if _, err := db.Exec(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	yc.Close()
	cl.Close()

	// Restart on the same logs. (Addresses change; clients reconnect.)
	cl2, err := cluster.Start(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	yc2, err := core.Connect(cl2.Addrs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer yc2.Close()
	db2 := yc2.Session()
	rows, err := db2.Query(ctx, "SELECT count(*) FROM t WHERE v = 'one'")
	if err != nil {
		t.Fatal(err)
	}
	if rows.All()[0][0].I != 2 {
		t.Fatalf("recovered index query: %+v", rows.All())
	}
	// The recovered cluster accepts new writes.
	if _, err := db2.Exec(ctx, "INSERT INTO t VALUES (4, 'four')"); err != nil {
		t.Fatal(err)
	}
	rows, err = db2.Query(ctx, "SELECT count(*) FROM t")
	if err != nil || rows.All()[0][0].I != 4 {
		t.Fatalf("post-recovery write: %+v %v", rows.All(), err)
	}
}
