package cluster_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"yesquel/internal/cluster"
	"yesquel/internal/kv"
	"yesquel/internal/kv/kvserver"
)

// TestReplicasAgreePastRetention is the drill for version GC as a
// function of the stream. An rf=3 group with a 40 ms retention window
// takes updates to a few hot leaves — and whole objects created and
// deleted, for the tombstone sweep — for many times that window, while
// reads push the primary's clock ahead of its backups'. Members that
// trimmed by their own clocks would keep different version histories;
// trimming by the commit timestamps in the stream, all three hold the
// same bytes at quiescence, and so does each member rebuilt from
// nothing but its own write-ahead log.
func TestReplicasAgreePastRetention(t *testing.T) {
	const retention = 40 * time.Millisecond
	dir := t.TempDir()
	cl, err := cluster.StartReplicated(1, 3, kvserver.Config{
		LogPath:                  dir,
		RetentionMillis:          uint64(retention.Milliseconds()),
		ReplicationLogMaxRecords: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			cl.Close()
		}
	}()
	ctx := context.Background()

	setup, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	leaves := make([]kv.OID, 4)
	for i := range leaves {
		leaves[i] = setup.NewOID(0)
		tx := setup.Begin()
		tx.Put(leaves[i], kv.NewSuper())
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	setup.Close()

	stop := time.Now().Add(15 * retention)
	var wg sync.WaitGroup
	var commits, gone int
	var mu sync.Mutex
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := cl.NewClient()
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			defer c.Close()
			for i := 0; time.Now().Before(stop); i++ {
				leaf := leaves[(w+i)%len(leaves)]
				tx := c.Begin()
				if _, _, err := tx.ReadPart(ctx, leaf, nil, nil, 4); err != nil {
					t.Errorf("worker %d read: %v", w, err)
					return
				}
				tx.ListAdd(leaf, []byte(fmt.Sprintf("k%02d", (w*7+i)%40)), []byte(fmt.Sprintf("w%d-%d", w, i)))
				ok := tx.Commit(ctx) == nil // a conflict on a hot cell is not the test's business
				// Every so often an object lives and dies, leaving a
				// tombstone for the sweep.
				if i%10 == 0 {
					oid := c.NewOID(0)
					put := c.Begin()
					put.Put(oid, kv.NewPlain([]byte("brief")))
					if err := put.Commit(ctx); err != nil {
						t.Errorf("worker %d put: %v", w, err)
						return
					}
					del := c.Begin()
					del.Delete(oid)
					if err := del.Commit(ctx); err != nil {
						t.Errorf("worker %d delete: %v", w, err)
						return
					}
					mu.Lock()
					gone++
					mu.Unlock()
				}
				if ok {
					mu.Lock()
					commits++
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	g := cl.Groups[0]
	members := append([]*kvserver.Server{g.Primary}, g.Backups...)
	if len(members) != 3 {
		t.Fatalf("group has %d members", len(members))
	}
	// Quiescence: every member at the primary's stream head.
	quiesce := func() uint64 {
		t.Helper()
		head := g.Primary.Store().ReplSeq()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			behind := false
			for _, m := range members {
				behind = behind || m.Store().ReplSeq() != head
			}
			if !behind {
				return head
			}
			if time.Now().After(deadline) {
				t.Fatalf("backups never reached the primary's stream head %d", head)
			}
		}
	}
	quiesce()
	// One last commit a retention later puts every tombstone below the
	// horizon; then each member sweeps at the same stream position.
	time.Sleep(2 * retention)
	last, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	tx := last.Begin()
	tx.ListAdd(leaves[0], []byte("last"), []byte("commit"))
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	last.Close()
	head := quiesce()

	var trimmed uint64
	digests := make([]uint64, len(members))
	for i, m := range members {
		m.Store().SweepTombstones()
		digests[i] = m.Store().StateDigest()
		trimmed += m.Store().Stats().GCVersions
	}
	if trimmed == 0 || commits < 100 || gone == 0 {
		t.Fatalf("degenerate run: %d commits, %d objects deleted, %d versions trimmed", commits, gone, trimmed)
	}
	for i := range digests {
		if digests[i] != digests[0] {
			t.Fatalf("after %d commits over %v (retention %v) member %d's digest %x != the primary's %x", commits, 15*retention, retention, i, digests[i], digests[0])
		}
	}
	if n := g.Primary.Store().NumObjects(); n != len(leaves) {
		t.Fatalf("%d objects left, want the %d leaves: %d deleted objects' tombstones are all below the horizon", n, len(leaves), gone)
	}

	// Each member again, from its log alone.
	cl.Close()
	closed = true
	logs, err := filepath.Glob(filepath.Join(dir, "*.log"))
	if err != nil || len(logs) != 3 {
		t.Fatalf("log files %v (err %v), want 3", logs, err)
	}
	for _, path := range logs {
		s, err := kvserver.OpenStore(nil, kvserver.Config{LogPath: path, RetentionMillis: uint64(retention.Milliseconds())})
		if err != nil {
			t.Fatal(err)
		}
		s.SweepTombstones()
		digest, seq := s.StateDigest(), s.ReplSeq()
		s.CloseLog()
		if digest != digests[0] || seq != head {
			st, _ := os.Stat(path)
			t.Fatalf("%s (%d bytes) restarts at seq %d digest %x, want seq %d digest %x", filepath.Base(path), st.Size(), seq, digest, head, digests[0])
		}
	}
}
