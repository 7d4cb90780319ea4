package kvserver_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
	"yesquel/internal/kv/kvserver"
)

// startServer launches a kvserver on an ephemeral port.
func startServer(t *testing.T) *kvserver.Server {
	t.Helper()
	return startServerWith(t, kvserver.Config{})
}

// startServerWith launches a kvserver with cfg on an ephemeral port.
func startServerWith(t *testing.T, cfg kvserver.Config) *kvserver.Server {
	t.Helper()
	srv := kvserver.NewServer(kvserver.NewStore(nil, cfg))
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv
}

// formGroup makes primary the primary of [primary, backups...] at its
// next epoch, the way cluster.startGroup does: one Reconfigure catches
// up the backups it does not list yet and installs the membership.
func formGroup(t *testing.T, primary *kvserver.Server, backups ...*kvserver.Server) {
	t.Helper()
	members := []string{primary.Addr()}
	for _, b := range backups {
		members = append(members, b.Addr())
	}
	if err := primary.Reconfigure(primary.Store().Epoch()+1, members); err != nil {
		t.Fatal(err)
	}
}

// dropBackups is the operator's answer to dead backups: re-form the
// group around the primary alone, which detaches their senders.
func dropBackups(t *testing.T, primary *kvserver.Server) {
	t.Helper()
	formGroup(t, primary)
}

// failOver kills primary and promotes backup to the sole member of the
// next epoch (the orchestrator killed the primary itself, so there is no
// lease to wait out).
func failOver(t *testing.T, primary, backup *kvserver.Server) {
	t.Helper()
	primary.Close()
	formGroup(t, backup)
}

func TestMirrorReplicatesAndFailsOver(t *testing.T) {
	primary := startServer(t)
	backup := startServer(t)
	formGroup(t, primary, backup)
	ctx := context.Background()

	c, err := kvclient.Open([]string{primary.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A mix of full writes and deltas, some multi-object.
	oids := make([]kv.OID, 5)
	for i := range oids {
		oids[i] = c.NewOID(0)
	}
	tx := c.Begin()
	tx.Put(oids[0], kv.NewPlain([]byte("zero")))
	tx.Put(oids[1], kv.NewPlain([]byte("one")))
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	tx = c.Begin()
	tx.ListAdd(oids[2], []byte("cell"), []byte("v"))
	tx.AttrSet(oids[2], 1, 42)
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	tx = c.Begin()
	tx.Put(oids[0], kv.NewPlain([]byte("zero-v2")))
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	tx = c.Begin()
	tx.Delete(oids[1])
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// Fail over: kill the primary, promote the backup, connect to it.
	failOver(t, primary, backup)
	c2, err := kvclient.Open([]string{backup.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	check := c2.Begin()
	defer check.Abort()
	if v, err := check.Read(ctx, oids[0]); err != nil || string(v.Data) != "zero-v2" {
		t.Fatalf("failover oids[0]: %v %v", v, err)
	}
	if _, err := check.Read(ctx, oids[1]); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("failover deleted object: %v", err)
	}
	if v, err := check.Read(ctx, oids[2]); err != nil || v.NumCells() != 1 || v.Attrs[1] != 42 {
		t.Fatalf("failover deltas: %+v %v", v, err)
	}
	// The promoted backup accepts new writes.
	tx2 := c2.Begin()
	tx2.Put(oids[3], kv.NewPlain([]byte("after-failover")))
	if err := tx2.Commit(ctx); err != nil {
		t.Fatalf("write after failover: %v", err)
	}
}

func TestMirrorPreservesVersionOrderUnderLoad(t *testing.T) {
	primary := startServer(t)
	backup := startServer(t)
	formGroup(t, primary, backup)
	ctx := context.Background()
	c, err := kvclient.Open([]string{primary.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Many sequential commits to one object plus scattered writes.
	oid := c.NewOID(0)
	for i := 0; i < 50; i++ {
		tx := c.Begin()
		tx.Put(oid, kv.NewPlain([]byte(fmt.Sprintf("v%d", i))))
		other := c.NewOID(0)
		tx.Put(other, kv.NewPlain([]byte("x")))
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	v, _, err := backup.Store().Read(oid, backup.Store().Clock().Now())
	if err != nil || string(v.Data) != "v49" {
		t.Fatalf("backup newest version: %v %v", v, err)
	}
}

func TestMirrorStrictFailure(t *testing.T) {
	primary := startServer(t)
	backup := startServer(t)
	formGroup(t, primary, backup)
	ctx := context.Background()
	c, err := kvclient.Open([]string{primary.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	oid := c.NewOID(0)
	tx := c.Begin()
	tx.Put(oid, kv.NewPlain([]byte("ok")))
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// Backup gone: strict replication refuses to commit.
	backup.Close()
	tx = c.Begin()
	tx.Put(oid, kv.NewPlain([]byte("lost")))
	if err := tx.Commit(ctx); err == nil {
		t.Fatal("commit succeeded with dead backup")
	}
	// Drop the backup: the primary serves alone again.
	dropBackups(t, primary)
	tx = c.Begin()
	tx.Put(oid, kv.NewPlain([]byte("solo")))
	if err := tx.Commit(ctx); err != nil {
		t.Fatalf("commit after detaching backup: %v", err)
	}
	check := c.Begin()
	defer check.Abort()
	if v, err := check.Read(ctx, oid); err != nil || string(v.Data) != "solo" {
		t.Fatalf("%v %v", v, err)
	}
}

// TestCompareOnlyVoteSurvivesFailover: a participant whose ops on this
// group are all compares votes yes only once its prepare is replicated,
// so when its primary dies between the vote and the decision, the
// promoted backup still holds the compared object's lock and commits the
// transaction instead of calling it unknown.
func TestCompareOnlyVoteSurvivesFailover(t *testing.T) {
	primary := startServer(t)
	backup := startServer(t)
	formGroup(t, primary, backup)
	ctx := context.Background()

	c, err := kvclient.Open([]string{primary.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	oid := c.NewOID(0)
	tx := c.Begin()
	tx.ListAdd(oid, []byte("b"), []byte("v"))
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	const txid = 1 << 62
	ps := primary.Store()
	proposed, err := ps.Prepare(txid, ps.Clock().Now(), []*kv.Op{{Kind: kv.OpCmpAbsent, OID: oid, From: []byte("c"), To: []byte("d")}})
	if err != nil {
		t.Fatal(err)
	}
	failOver(t, primary, backup)
	bs := backup.Store()
	if !bs.IsLocked(oid) {
		t.Fatal("the promoted backup lost the compare-only prepare's lock")
	}
	if err := bs.Commit(txid, proposed); err != nil {
		t.Fatalf("decision on the promoted backup: %v", err)
	}
	if bs.IsLocked(oid) || bs.VersionCount(oid) != 1 {
		t.Fatalf("after the decision: locked %v, %d versions", bs.IsLocked(oid), bs.VersionCount(oid))
	}
}

// TestLeaseRidesTheMirrorStream: a primary's lease grants are the
// batches its members accept, heartbeats included, so an idle primary
// keeps serving only while a majority of its group accepts its stream.
// No client traffic runs: every change below is seen through heartbeats
// alone.
func TestLeaseRidesTheMirrorStream(t *testing.T) {
	const lease = 300 * time.Millisecond
	for _, tc := range []struct {
		name    string
		backups int
		// disrupt acts on the formed group.
		disrupt func(t *testing.T, primary *kvserver.Server, backups []*kvserver.Server)
		// role is the primary's role afterwards ("" when either outcome
		// is right), serves whether it still admits client operations.
		role   string
		serves bool
	}{
		{
			// A loser of a failover adopted its winner's epoch, and the
			// deposed primary then installs that epoch number for its own
			// group. The loser refuses the RecEpoch, and so grants nothing
			// more. The refusal may reach the primary before its own
			// install does, and then it adopts the winner's configuration
			// instead: it serves in neither case.
			name: "deposed primary installs its successor's epoch", backups: 1,
			disrupt: func(t *testing.T, primary *kvserver.Server, backups []*kvserver.Server) {
				loser := backups[0]
				next := primary.Store().Epoch() + 1
				loser.Store().AdoptEpoch(next, []string{"127.0.0.1:1", loser.Addr()})
				if err := primary.Reconfigure(next, []string{primary.Addr(), loser.Addr()}); !errors.Is(err, kv.ErrWrongEpoch) {
					t.Fatalf("the loser acked the deposed primary's configuration change: %v", err)
				}
			},
			serves: false,
		},
		{
			name: "idle primary's group moved on without it", backups: 1,
			disrupt: func(t *testing.T, primary *kvserver.Server, backups []*kvserver.Server) {
				b := backups[0]
				if err := b.Reconfigure(primary.Store().Epoch()+1, []string{b.Addr()}); err != nil {
					t.Fatal(err)
				}
			},
			role: kvserver.RoleRemoved, serves: false,
		},
		{
			name: "pair: the only member broke", backups: 1,
			disrupt: func(t *testing.T, _ *kvserver.Server, backups []*kvserver.Server) {
				backups[0].Close()
			},
			role: kvserver.RolePrimary, serves: false,
		},
		{
			name: "rf=3: one member broke", backups: 2,
			disrupt: func(t *testing.T, _ *kvserver.Server, backups []*kvserver.Server) {
				backups[1].Close()
			},
			role: kvserver.RolePrimary, serves: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := kvserver.Config{LeaseDuration: lease}
			primary := startServerWith(t, cfg)
			var backups []*kvserver.Server
			for i := 0; i < tc.backups; i++ {
				backups = append(backups, startServerWith(t, cfg))
			}
			formGroup(t, primary, backups...)
			st := primary.Store()
			if err := st.CheckClientOp(0); err != nil {
				t.Fatalf("formed group's primary does not serve: %v", err)
			}
			tc.disrupt(t, primary, backups)
			reached := func() error {
				_, _, _, members := st.ReplicationStatus()
				broken := 0
				for _, m := range members {
					if m.Broken {
						broken++
					}
				}
				switch serves := st.CheckClientOp(0) == nil; {
				case broken != 1:
					return fmt.Errorf("%d broken members, want 1", broken)
				case tc.role != "" && st.Role() != tc.role:
					return fmt.Errorf("role %s, want %s", st.Role(), tc.role)
				case serves != tc.serves:
					return fmt.Errorf("serves = %v, want %v", serves, tc.serves)
				}
				return nil
			}
			// Reached within two lease periods, and held for two more.
			deadline := time.Now().Add(2 * lease)
			for err := reached(); err != nil; err = reached() {
				if time.Now().After(deadline) {
					t.Fatalf("after %v: %v", 2*lease, err)
				}
				time.Sleep(5 * time.Millisecond)
			}
			time.Sleep(2 * lease)
			if err := reached(); err != nil {
				t.Fatalf("%v later: %v", 2*lease, err)
			}
		})
	}
}

// TestCommitsBesideEpochBumps: commits from four writers sharing one
// client's connection run while the primary bumps its epoch twenty
// times with the same members. A request stamped with an epoch a bump
// superseded is refused, and retried on the same connection: not one
// commit fails or comes back uncertain.
func TestCommitsBesideEpochBumps(t *testing.T) {
	primary, backup := startServer(t), startServer(t)
	formGroup(t, primary, backup)
	c, err := kvclient.Open([]string{primary.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	besideCommits(t, c, func() {
		for i := 0; i < 20; i++ {
			if err := primary.Reconfigure(primary.Store().Epoch()+1, []string{primary.Addr(), backup.Addr()}); err != nil {
				t.Fatal(err)
			}
		}
	})
}
