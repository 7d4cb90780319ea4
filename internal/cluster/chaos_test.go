package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"yesquel/internal/cluster"
	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
	"yesquel/internal/kv/kvserver"
	"yesquel/internal/rpc"
)

// ackedWrite is one write whose Commit returned nil: the system
// promised it, so it must survive any single failure.
type ackedWrite struct {
	oid kv.OID
	val string
}

// TestKillPrimaryUnderLoadLosesNoAckedWrite is the headline replication
// guarantee: a YCSB-style insert workload runs against a replicated
// cluster, the primary of slot 0 is killed mid-stream, the clients fail
// over to the backup, and every single acknowledged write is still
// readable afterwards. Commits whose acknowledgment was lost in the
// crash surface kv.ErrUncertain and are allowed to have gone either way.
func TestKillPrimaryUnderLoadLosesNoAckedWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("long chaos drill (-short)")
	}
	cl, err := cluster.StartReplicated(2, 2, kvserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	const workers = 8
	const writesPerWorker = 120
	const killAfter = 30 // per worker, before the primary dies

	var mu sync.Mutex
	var acked []ackedWrite
	var uncertain, failed int

	killed := make(chan struct{})
	var killOnce sync.Once
	var wg sync.WaitGroup
	// Every client is opened before any worker runs: the kill
	// changes the cluster's membership, which NewClient reads.
	clients := make([]*kvclient.Client, workers)
	for w := range clients {
		c, err := cl.NewClient()
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
		defer c.Close()
		clients[w] = c
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := clients[w]
			for i := 0; i < writesPerWorker; i++ {
				if i == killAfter && w == 0 {
					killOnce.Do(func() {
						if err := cl.KillPrimary(0); err != nil {
							t.Errorf("kill primary: %v", err)
						}
						close(killed)
					})
				}
				// Spread writes over both slots; slot 0 is the one that
				// fails over mid-run.
				oid := c.NewOID(uint16(i % 2))
				val := fmt.Sprintf("w%d-%d", w, i)
				tx := c.Begin()
				tx.Put(oid, kv.NewPlain([]byte(val)))
				err := tx.Commit(ctx)
				mu.Lock()
				switch {
				case err == nil:
					acked = append(acked, ackedWrite{oid, val})
				case errors.Is(err, kv.ErrUncertain):
					uncertain++
				default:
					failed++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	select {
	case <-killed:
	default:
		t.Fatal("workload finished before the primary was killed")
	}
	if len(acked) < workers*writesPerWorker/2 {
		t.Fatalf("only %d/%d writes acknowledged (uncertain=%d failed=%d)",
			len(acked), workers*writesPerWorker, uncertain, failed)
	}
	t.Logf("acked=%d uncertain=%d failed=%d", len(acked), uncertain, failed)

	// Every acknowledged write must be readable after the failover —
	// through a fresh client that only knows the surviving replicas.
	verify, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer verify.Close()
	check := verify.Begin()
	defer check.Abort()
	lost := 0
	for _, aw := range acked {
		v, err := check.Read(ctx, aw.oid)
		if err != nil || string(v.Data) != aw.val {
			lost++
			t.Errorf("acknowledged write %v=%q lost: %v %v", aw.oid, aw.val, v, err)
			if lost > 5 {
				t.Fatal("... giving up")
			}
		}
	}

	// Restart re-forms the pair: a fresh backup streams the whole
	// history from the acting primary and resumes mirroring.
	if err := cl.Restart(0); err != nil {
		t.Fatal(err)
	}
	g := cl.Groups[0]
	if len(g.Backups) == 0 {
		t.Fatal("no backup after Restart")
	}
	if got, want := g.Backups[0].Store().StateDigest(), g.Primary.Store().StateDigest(); got != want {
		t.Fatalf("restarted backup digest %x != acting primary digest %x", got, want)
	}

	// New writes reach the re-formed pair synchronously.
	tx := verify.Begin()
	oid := verify.NewOID(0)
	tx.Put(oid, kv.NewPlain([]byte("post-restart")))
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := g.Backups[0].Store().StateDigest(), g.Primary.Store().StateDigest(); got != want {
		t.Fatalf("after post-restart write: backup digest %x != primary digest %x", got, want)
	}
}

// TestRestartWhileWritesContinue re-forms a pair while the workload is
// still running: the new backup's catch-up stream and the primary's
// live mirror interleave, and sequence-order buffering must keep the
// replicas identical.
func TestRestartWhileWritesContinue(t *testing.T) {
	if testing.Short() {
		t.Skip("long chaos drill (-short)")
	}
	cl, err := cluster.StartReplicated(1, 2, kvserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 40; i++ {
		tx := c.Begin()
		tx.Put(c.NewOID(0), kv.NewPlain([]byte(fmt.Sprintf("pre-%d", i))))
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.KillPrimary(0); err != nil {
		t.Fatal(err)
	}

	// Writers hammer the acting primary while the pair re-forms.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wc, err := cl.NewClient()
			if err != nil {
				t.Errorf("writer %d: %v", w, err)
				return
			}
			defer wc.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tx := wc.Begin()
				tx.Put(wc.NewOID(0), kv.NewPlain([]byte(fmt.Sprintf("live-%d-%d", w, i))))
				if err := tx.Commit(ctx); err != nil && !errors.Is(err, kv.ErrUncertain) {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	if err := cl.Restart(0); err != nil {
		close(stop)
		wg.Wait()
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	g := cl.Groups[0]
	if got, want := g.Backups[0].Store().ReplSeq(), g.Primary.Store().ReplSeq(); got != want {
		t.Fatalf("backup seq %d != primary seq %d", got, want)
	}
	if got, want := g.Backups[0].Store().StateDigest(), g.Primary.Store().StateDigest(); got != want {
		t.Fatalf("backup digest %x != primary digest %x", got, want)
	}
}

// TestKillPrimaryBetweenVoteAndPhaseTwo is the 2PC outcome-recovery
// headline through the real client path: a cross-slot transaction's
// participant primary dies after voting yes but before phase two. The
// prepare was replicated with the vote, so the promoted backup holds
// the staged transaction, the coordinator drives the commit decision
// onto it, and the transaction lands atomically on every slot.
func TestKillPrimaryBetweenVoteAndPhaseTwo(t *testing.T) {
	cl, err := cluster.StartReplicated(2, 2, kvserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	oidA, oidB := c.NewOID(0), c.NewOID(1)
	tx := c.Begin()
	tx.Put(oidA, kv.NewPlain([]byte("atomic-a")))
	tx.Put(oidB, kv.NewPlain([]byte("atomic-b")))
	tx.TestHookAfterVote = func() {
		// Both participants voted yes (slot 0's prepare is already on
		// its backup); now slot 0's primary dies before any phase-two
		// request is sent.
		if err := cl.KillPrimary(0); err != nil {
			t.Errorf("kill primary: %v", err)
		}
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatalf("commit across the failover: %v", err)
	}

	// Atomically applied: both halves visible through a fresh client
	// that only knows the surviving replicas.
	verify, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer verify.Close()
	check := verify.Begin()
	defer check.Abort()
	if v, err := check.Read(ctx, oidA); err != nil || string(v.Data) != "atomic-a" {
		t.Fatalf("slot-0 half after failover: %v %v", v, err)
	}
	if v, err := check.Read(ctx, oidB); err != nil || string(v.Data) != "atomic-b" {
		t.Fatalf("slot-1 half after failover: %v %v", v, err)
	}

	// The re-formed pair streams the prepare and decision records and
	// converges byte for byte.
	if err := cl.Restart(0); err != nil {
		t.Fatal(err)
	}
	g := cl.Groups[0]
	if got, want := g.Backups[0].Store().StateDigest(), g.Primary.Store().StateDigest(); got != want {
		t.Fatalf("re-formed backup digest %x != primary digest %x", got, want)
	}
}

// raw2PC drives two-phase commit by hand over raw RPC connections, so
// the test controls exactly when each phase-two request is sent
// relative to a primary kill. It returns the chosen commit timestamp.
func raw2PC(t *testing.T, cl *cluster.Cluster, txid uint64, start kv.Timestamp, ops map[int][]*kv.Op) kv.Timestamp {
	t.Helper()
	ctx := context.Background()
	var commitTS kv.Timestamp
	for slot, slotOps := range ops {
		conn, err := rpc.Dial(cl.Addrs[slot])
		if err != nil {
			t.Fatal(err)
		}
		req := kv.PrepareReq{TxID: txid, Start: start, Ops: slotOps}
		respB, err := conn.Call(ctx, kv.MethodPrepare, req.Encode())
		conn.Close()
		if err != nil {
			t.Fatalf("prepare on slot %d: %v", slot, err)
		}
		resp, err := kv.DecodePrepareResp(respB)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Proposed > commitTS {
			commitTS = resp.Proposed
		}
	}
	return commitTS
}

// sendCommit delivers one phase-two CommitReq to addr and returns the
// RPC error (nil = acknowledged).
func sendCommit(t *testing.T, addr string, txid uint64, commitTS kv.Timestamp) error {
	t.Helper()
	conn, err := rpc.Dial(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	_, err = conn.Call(context.Background(), kv.MethodCommit, (&kv.CommitReq{TxID: txid, CommitTS: commitTS}).Encode())
	return err
}

// TestRaw2PCKillBeforeDecision is scenario (a) at the protocol level:
// the participant primary dies after its vote, the coordinator drives
// the decision to the promoted backup (which staged the prepare from
// the mirror stream), and a duplicate decision is acknowledged from
// the decided-transaction table. A second transaction is aborted after
// the failover and must be fully invisible.
func TestRaw2PCKillBeforeDecision(t *testing.T) {
	cl, err := cluster.StartReplicated(2, 2, kvserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	oidA, oidB := kv.MakeOID(0, 1001), kv.MakeOID(1, 1002)
	start := cl.Servers[0].Store().Clock().Now()
	const txid = uint64(7_000_001)
	commitTS := raw2PC(t, cl, txid, start, map[int][]*kv.Op{
		0: {{Kind: kv.OpPut, OID: oidA, Value: kv.NewPlain([]byte("ra"))}},
		1: {{Kind: kv.OpPut, OID: oidB, Value: kv.NewPlain([]byte("rb"))}},
	})

	// The vote is in; slot 0's primary dies before the decision.
	if err := cl.KillPrimary(0); err != nil {
		t.Fatal(err)
	}
	promoted := cl.Groups[0].Primary.Store()
	if !promoted.IsLocked(oidA) {
		t.Fatal("promoted backup does not hold the replicated prepare")
	}

	// Drive the decision to every participant — slot 0's is now the
	// promoted backup.
	if err := sendCommit(t, cl.Addrs[0], txid, commitTS); err != nil {
		t.Fatalf("decision on promoted backup: %v", err)
	}
	if err := sendCommit(t, cl.Addrs[1], txid, commitTS); err != nil {
		t.Fatalf("decision on slot 1: %v", err)
	}
	// The acceptance check: a retried decision for a decided txid is an
	// acknowledgment, not an error.
	for slot := 0; slot < 2; slot++ {
		if err := sendCommit(t, cl.Addrs[slot], txid, commitTS); err != nil {
			t.Fatalf("replayed decision on slot %d: %v", slot, err)
		}
	}

	verify, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer verify.Close()
	check := verify.Begin()
	if v, err := check.Read(ctx, oidA); err != nil || string(v.Data) != "ra" {
		t.Fatalf("slot-0 half: %v %v", v, err)
	}
	if v, err := check.Read(ctx, oidB); err != nil || string(v.Data) != "rb" {
		t.Fatalf("slot-1 half: %v %v", v, err)
	}
	check.Abort()

	// An in-flight transaction aborted after the failover is fully
	// invisible and leaves no locks.
	oidC, oidD := kv.MakeOID(0, 2001), kv.MakeOID(1, 2002)
	const txid2 = uint64(7_000_002)
	raw2PC(t, cl, txid2, verify.Clock().Now(), map[int][]*kv.Op{
		0: {{Kind: kv.OpPut, OID: oidC, Value: kv.NewPlain([]byte("never"))}},
		1: {{Kind: kv.OpPut, OID: oidD, Value: kv.NewPlain([]byte("never"))}},
	})
	for slot := 0; slot < 2; slot++ {
		conn, err := rpc.Dial(cl.Addrs[slot])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Call(ctx, kv.MethodAbort, (&kv.AbortReq{TxID: txid2}).Encode()); err != nil {
			t.Fatalf("abort on slot %d: %v", slot, err)
		}
		conn.Close()
	}
	check2 := verify.Begin()
	defer check2.Abort()
	if _, err := check2.Read(ctx, oidC); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("aborted half visible on slot 0: %v", err)
	}
	if _, err := check2.Read(ctx, oidD); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("aborted half visible on slot 1: %v", err)
	}
	if promoted.IsLocked(oidC) || cl.Servers[1].Store().IsLocked(oidD) {
		t.Fatal("aborted transaction stranded locks")
	}
}

// TestRaw2PCKillDuringPhaseTwo is scenario (b): the participant
// primary applies the commit decision (mirroring it to the backup) and
// dies before the coordinator's acknowledgment arrives. The retried
// decision onto the promoted backup is answered from the mirrored
// decided-transaction state — acknowledged, applied exactly once.
func TestRaw2PCKillDuringPhaseTwo(t *testing.T) {
	cl, err := cluster.StartReplicated(2, 2, kvserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	oidA, oidB := kv.MakeOID(0, 3001), kv.MakeOID(1, 3002)
	start := cl.Servers[0].Store().Clock().Now()
	const txid = uint64(7_000_003)
	commitTS := raw2PC(t, cl, txid, start, map[int][]*kv.Op{
		0: {{Kind: kv.OpPut, OID: oidA, Value: kv.NewPlain([]byte("pa"))}},
		1: {{Kind: kv.OpPut, OID: oidB, Value: kv.NewPlain([]byte("pb"))}},
	})

	// Phase two reaches slot 0's primary (the decision is mirrored to
	// the backup), then the primary dies — from the coordinator's view
	// the acknowledgment may have been lost, so it retries.
	if err := sendCommit(t, cl.Addrs[0], txid, commitTS); err != nil {
		t.Fatalf("first decision on slot 0: %v", err)
	}
	if err := cl.KillPrimary(0); err != nil {
		t.Fatal(err)
	}
	if err := sendCommit(t, cl.Addrs[0], txid, commitTS); err != nil {
		t.Fatalf("retried decision on promoted backup: %v", err)
	}
	if err := sendCommit(t, cl.Addrs[1], txid, commitTS); err != nil {
		t.Fatalf("decision on slot 1: %v", err)
	}

	promoted := cl.Groups[0].Primary.Store()
	if n := promoted.VersionCount(oidA); n != 1 {
		t.Fatalf("retried decision applied %d times", n)
	}
	verify, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer verify.Close()
	check := verify.Begin()
	defer check.Abort()
	if v, err := check.Read(ctx, oidA); err != nil || string(v.Data) != "pa" {
		t.Fatalf("slot-0 half: %v %v", v, err)
	}
	if v, err := check.Read(ctx, oidB); err != nil || string(v.Data) != "pb" {
		t.Fatalf("slot-1 half: %v %v", v, err)
	}
}
