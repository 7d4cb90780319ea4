package kvclient_test

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
)

func startCluster(t *testing.T, n int) (*cluster.Cluster, *kvclient.Client) {
	t.Helper()
	cl, err := cluster.Start(n, kvserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return cl, c
}

func TestPutReadAcrossTransactions(t *testing.T) {
	_, c := startCluster(t, 1)
	ctx := context.Background()
	oid := c.NewOID(0)

	tx := c.Begin()
	tx.Put(oid, kv.NewPlain([]byte("hello")))
	if err := tx.Commit(ctx); err != nil {
		t.Fatalf("commit: %v", err)
	}

	tx2 := c.Begin()
	v, err := tx2.Read(ctx, oid)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(v.Data) != "hello" {
		t.Fatalf("read %q", v.Data)
	}
	if err := tx2.Commit(ctx); err != nil {
		t.Fatalf("read-only commit: %v", err)
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	_, c := startCluster(t, 1)
	ctx := context.Background()
	oid := c.NewOID(0)

	tx := c.Begin()
	// Not yet written anywhere: read must miss.
	if _, err := tx.Read(ctx, oid); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("read before write: %v", err)
	}
	tx.ListAdd(oid, []byte("k1"), []byte("v1"))
	tx.AttrSet(oid, 2, 77)
	v, err := tx.Read(ctx, oid)
	if err != nil {
		t.Fatalf("read own writes: %v", err)
	}
	if v.NumCells() != 1 || v.Attrs[2] != 77 {
		t.Fatalf("own writes not visible: %+v", v)
	}
	// Delete then re-add within the same transaction.
	tx.Delete(oid)
	if _, err := tx.Read(ctx, oid); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("read after own delete: %v", err)
	}
	tx.ListAdd(oid, []byte("k2"), []byte("v2"))
	v, err = tx.Read(ctx, oid)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v.ListGet([]byte("k1")); ok {
		t.Fatal("cell from before own delete survived")
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// Committed state matches the transaction's final view.
	tx2 := c.Begin()
	v, err = tx2.Read(ctx, oid)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v.ListGet([]byte("k2")); !ok || v.NumCells() != 1 {
		t.Fatalf("committed state wrong: %+v", v)
	}
}

func TestIsolationUncommittedInvisible(t *testing.T) {
	_, c := startCluster(t, 1)
	ctx := context.Background()
	oid := c.NewOID(0)

	tx := c.Begin()
	tx.Put(oid, kv.NewPlain([]byte("uncommitted")))
	// A concurrent transaction must not see the buffered write.
	tx2 := c.Begin()
	if _, err := tx2.Read(ctx, oid); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("uncommitted write visible: %v", err)
	}
	tx.Abort()
	tx3 := c.Begin()
	if _, err := tx3.Read(ctx, oid); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("aborted write visible: %v", err)
	}
}

func TestSnapshotIsolationRepeatableRead(t *testing.T) {
	_, c := startCluster(t, 1)
	ctx := context.Background()
	oid := c.NewOID(0)

	tx := c.Begin()
	tx.Put(oid, kv.NewPlain([]byte("v1")))
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	reader := c.Begin()
	v, err := reader.Read(ctx, oid)
	if err != nil || string(v.Data) != "v1" {
		t.Fatalf("first read: %v %v", v, err)
	}

	writer := c.Begin()
	writer.Put(oid, kv.NewPlain([]byte("v2")))
	if err := writer.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// The reader's snapshot must still return v1.
	v, err = reader.Read(ctx, oid)
	if err != nil || string(v.Data) != "v1" {
		t.Fatalf("repeatable read broken: %v %v", v, err)
	}
	// A fresh transaction sees v2.
	fresh := c.Begin()
	v, err = fresh.Read(ctx, oid)
	if err != nil || string(v.Data) != "v2" {
		t.Fatalf("fresh read: %v %v", v, err)
	}
}

func TestWriteWriteConflict(t *testing.T) {
	_, c := startCluster(t, 1)
	ctx := context.Background()
	oid := c.NewOID(0)
	init := c.Begin()
	init.Put(oid, kv.NewPlain([]byte("base")))
	if err := init.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// Classic lost-update shape: both transactions read the object at
	// their snapshot, then both try to overwrite it. Reading pins the
	// snapshot on the server (Clock-SI), so the second committer must
	// conflict. (A *blind* concurrent overwrite may instead be ordered
	// after the first commit under generalized SI — that is legal and
	// loses no update.)
	tx1 := c.Begin()
	tx2 := c.Begin()
	if _, err := tx1.Read(ctx, oid); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Read(ctx, oid); err != nil {
		t.Fatal(err)
	}
	tx1.Put(oid, kv.NewPlain([]byte("one")))
	tx2.Put(oid, kv.NewPlain([]byte("two")))
	if err := tx1.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(ctx); !errors.Is(err, kv.ErrConflict) {
		t.Fatalf("second writer: got %v, want ErrConflict", err)
	}
	v, err := c.Begin().Read(ctx, oid)
	if err != nil || string(v.Data) != "one" {
		t.Fatalf("final state: %v %v", v, err)
	}
}

// TestUnappliableOpIsABadRequest: a commit whose op cannot apply — a
// ListAdd on a plain value — fails with kv.ErrBadRequest, which no caller
// retries, not kv.ErrConflict, which callers do: as a one-shot commit on
// one participant and as a two-phase prepare's no vote on two.
func TestUnappliableOpIsABadRequest(t *testing.T) {
	_, c := startCluster(t, 2)
	ctx := context.Background()
	plain := c.NewOID(0)
	tx := c.Begin()
	tx.Put(plain, kv.NewPlain([]byte("plain")))
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	for _, participants := range []int{1, 2} {
		tx := c.Begin()
		tx.ListAdd(plain, []byte("k"), []byte("v"))
		if participants == 2 {
			tx.Put(c.NewOID(1), kv.NewPlain([]byte("other")))
		}
		if err := tx.Commit(ctx); !errors.Is(err, kv.ErrBadRequest) || errors.Is(err, kv.ErrConflict) {
			t.Fatalf("%d participants: commit of a ListAdd on a plain value: %v, want kv.ErrBadRequest", participants, err)
		}
	}
}

// TestOnCommitRunsAfterACommitOnly: a hook runs once per key, after the
// commit and before Commit returns; a transaction that loses its commit,
// or is aborted, runs none.
func TestOnCommitRunsAfterACommitOnly(t *testing.T) {
	_, c := startCluster(t, 1)
	ctx := context.Background()
	oid := c.NewOID(0)
	ran := map[string]int{}
	hook := func(name string) func(context.Context) {
		return func(context.Context) {
			if v, err := c.Begin().Read(ctx, oid); err != nil || string(v.Data) != name {
				t.Errorf("hook of %q sees %v, %v: it ran before the commit", name, v, err)
			}
			ran[name]++
		}
	}

	won, lost, aborted := c.Begin(), c.Begin(), c.Begin()
	for name, tx := range map[string]*kvclient.Tx{"won": won, "lost": lost, "aborted": aborted} {
		if _, err := tx.Read(ctx, oid); !errors.Is(err, kv.ErrNotFound) {
			t.Fatal(err)
		}
		tx.Put(oid, kv.NewPlain([]byte(name)))
		tx.OnCommit(oid, hook(name))
		tx.OnCommit(oid, hook(name)) // the key is taken
	}
	if err := won.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := lost.Commit(ctx); !errors.Is(err, kv.ErrConflict) {
		t.Fatalf("second writer: got %v, want ErrConflict", err)
	}
	aborted.Abort()
	if ran["won"] != 1 || ran["lost"] != 0 || ran["aborted"] != 0 {
		t.Fatalf("hooks ran %v, want the committed transaction's, once", ran)
	}
}

// TestCommitReportsBoundedCells: a commit reply carries, for each object
// the transaction bounded with OpCmpMaxCells, the cells the commit left it
// with — on the one-round fast commit and on each two-phase participant —
// and an OnCommit hook reads them with Tx.Cells; an object bounded by
// nothing reports none.
func TestCommitReportsBoundedCells(t *testing.T) {
	_, c := startCluster(t, 2)
	ctx := context.Background()
	a, b, other := c.NewOID(0), c.NewOID(1), c.NewOID(0)
	commit := func(oids ...kv.OID) map[kv.OID]int {
		t.Helper()
		tx := c.Begin()
		for _, oid := range oids {
			tx.ListAdd(oid, []byte("k1"), nil)
			tx.ListAdd(oid, []byte("k2"), nil)
			tx.Stage(&kv.Op{Kind: kv.OpCmpMaxCells, OID: oid, Num: 100})
		}
		tx.ListAdd(other, []byte("k"), nil)
		got := map[kv.OID]int{}
		tx.OnCommit("cells", func(context.Context) {
			for _, oid := range append(oids, other) {
				if n, ok := tx.Cells(oid); ok {
					got[oid] = n
				}
			}
		})
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := commit(a); fmt.Sprint(got) != fmt.Sprint(map[kv.OID]int{a: 2}) {
		t.Errorf("fast commit reported %v, want %v", got, map[kv.OID]int{a: 2})
	}
	if got, want := commit(a, b), map[kv.OID]int{a: 2, b: 2}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("two-phase commit reported %v, want %v", got, want)
	}
}

func TestMultiServer2PC(t *testing.T) {
	_, c := startCluster(t, 4)
	ctx := context.Background()

	// One OID per server: the commit must span all four participants.
	oids := make([]kv.OID, 4)
	for i := range oids {
		oids[i] = c.NewOID(uint16(i))
		if c.ServerFor(oids[i]) != i {
			t.Fatalf("placement: oid slot %d on server %d", i, c.ServerFor(oids[i]))
		}
	}
	tx := c.Begin()
	for i, oid := range oids {
		tx.Put(oid, kv.NewPlain([]byte(fmt.Sprintf("server-%d", i))))
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatalf("2PC commit: %v", err)
	}

	check := c.Begin()
	for i, oid := range oids {
		v, err := check.Read(ctx, oid)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if string(v.Data) != fmt.Sprintf("server-%d", i) {
			t.Fatalf("read %d: %q", i, v.Data)
		}
	}
}

func TestMultiServer2PCConflictAbortsEverywhere(t *testing.T) {
	_, c := startCluster(t, 2)
	ctx := context.Background()
	a := c.NewOID(0)
	b := c.NewOID(1)
	init := c.Begin()
	init.Put(a, kv.NewPlain([]byte("a0")))
	init.Put(b, kv.NewPlain([]byte("b0")))
	if err := init.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// tx1 updates only b, committing first; tx2 reads and updates both a
	// and b (the reads pin its snapshot below tx1's commit).
	tx1 := c.Begin()
	tx2 := c.Begin()
	if _, err := tx2.Read(ctx, a); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Read(ctx, b); err != nil {
		t.Fatal(err)
	}
	tx1.Put(b, kv.NewPlain([]byte("b1")))
	tx2.Put(a, kv.NewPlain([]byte("a2")))
	tx2.Put(b, kv.NewPlain([]byte("b2")))
	if err := tx1.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(ctx); !errors.Is(err, kv.ErrConflict) {
		t.Fatalf("tx2 commit: got %v, want conflict", err)
	}
	// tx2's write to a must have been rolled back on server 0.
	check := c.Begin()
	v, err := check.Read(ctx, a)
	if err != nil || string(v.Data) != "a0" {
		t.Fatalf("partial commit leaked: a=%v err=%v", v, err)
	}
	v, err = check.Read(ctx, b)
	if err != nil || string(v.Data) != "b1" {
		t.Fatalf("b=%v err=%v", v, err)
	}
}

func TestAtomicityAcrossServers(t *testing.T) {
	_, c := startCluster(t, 2)
	ctx := context.Background()
	a := c.NewOID(0) // bank account on server 0
	b := c.NewOID(1) // bank account on server 1

	setBalance := func(tx *kvclient.Tx, oid kv.OID, n uint64) {
		v := kv.NewSuper()
		v.Attrs[0] = n
		tx.Put(oid, v)
	}
	init := c.Begin()
	setBalance(init, a, 100)
	setBalance(init, b, 0)
	if err := init.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// Transfer loop in one goroutine; invariant checker in another.
	const transfers = 50
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < transfers; i++ {
			for {
				tx := c.Begin()
				va, err1 := tx.Read(ctx, a)
				vb, err2 := tx.Read(ctx, b)
				if err1 != nil || err2 != nil {
					tx.Abort()
					continue
				}
				tx.AttrSet(a, 0, va.Attrs[0]-1)
				tx.AttrSet(b, 0, vb.Attrs[0]+1)
				if err := tx.Commit(ctx); err == nil {
					break
				}
			}
		}
		close(stop)
	}()

	checkFailures := 0
	for {
		select {
		case <-stop:
			wg.Wait()
			final := c.Begin()
			va, _ := final.Read(ctx, a)
			vb, _ := final.Read(ctx, b)
			if va.Attrs[0]+vb.Attrs[0] != 100 {
				t.Fatalf("conservation violated: %d + %d", va.Attrs[0], vb.Attrs[0])
			}
			if va.Attrs[0] != 100-transfers {
				t.Fatalf("a = %d, want %d", va.Attrs[0], 100-transfers)
			}
			return
		default:
			tx := c.Begin()
			va, err1 := tx.Read(ctx, a)
			vb, err2 := tx.Read(ctx, b)
			if err1 == nil && err2 == nil {
				if va.Attrs[0]+vb.Attrs[0] != 100 {
					checkFailures++
					t.Fatalf("snapshot saw partial transfer: %d + %d = %d",
						va.Attrs[0], vb.Attrs[0], va.Attrs[0]+vb.Attrs[0])
				}
			}
		}
	}
}

func TestCommitAfterAbortFails(t *testing.T) {
	_, c := startCluster(t, 1)
	tx := c.Begin()
	tx.Put(c.NewOID(0), kv.NewPlain([]byte("x")))
	tx.Abort()
	if err := tx.Commit(context.Background()); !errors.Is(err, kv.ErrAborted) {
		t.Fatalf("commit after abort: %v", err)
	}
}

func TestBeginAtTimeTravel(t *testing.T) {
	_, c := startCluster(t, 1)
	ctx := context.Background()
	oid := c.NewOID(0)

	tx := c.Begin()
	tx.Put(oid, kv.NewPlain([]byte("v1")))
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	tsAfterV1 := c.Clock().Now()

	tx = c.Begin()
	tx.Put(oid, kv.NewPlain([]byte("v2")))
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	old := c.BeginAt(tsAfterV1)
	v, err := old.Read(ctx, oid)
	if err != nil || string(v.Data) != "v1" {
		t.Fatalf("time travel read: %v %v", v, err)
	}
}

func TestDeltaOpsOverNetwork(t *testing.T) {
	_, c := startCluster(t, 2)
	ctx := context.Background()
	oid := c.NewOID(1)

	// Blind delta inserts: no reads at all before commit.
	tx := c.Begin()
	for i := 0; i < 10; i++ {
		tx.ListAdd(oid, []byte{byte('a' + i)}, []byte{byte(i)})
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	v, err := c.Begin().Read(ctx, oid)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumCells() != 10 {
		t.Fatalf("cells = %d", v.NumCells())
	}

	tx = c.Begin()
	tx.ListDelRange(oid, []byte("c"), []byte("f"))
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	v, _ = c.Begin().Read(ctx, oid)
	if v.NumCells() != 7 {
		t.Fatalf("after delrange: %d cells", v.NumCells())
	}
}

func TestPing(t *testing.T) {
	_, c := startCluster(t, 3)
	for i := 0; i < 3; i++ {
		if err := c.Ping(context.Background(), i); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
}

func TestOIDUniqueAcrossClients(t *testing.T) {
	cl, c1 := startCluster(t, 1)
	c2, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	seen := make(map[kv.OID]bool)
	for i := 0; i < 1000; i++ {
		o1, o2 := c1.NewOID(0), c2.NewOID(0)
		if seen[o1] || seen[o2] || o1 == o2 {
			t.Fatal("OID collision")
		}
		seen[o1], seen[o2] = true, true
	}
}
