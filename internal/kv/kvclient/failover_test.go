package kvclient_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"yesquel/internal/clock"
	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
	"yesquel/internal/kv/kvserver"
	"yesquel/internal/rpc"
	"yesquel/internal/wire"
)

// startPair launches a primary+backup group and a client whose server
// slot 0 knows both replicas.
func startPair(t *testing.T) (*kvserver.Server, *kvserver.Server, *kvclient.Client) {
	t.Helper()
	newSrv := func() *kvserver.Server {
		srv := kvserver.NewServer(kvserver.NewStore(nil, kvserver.Config{}))
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		go srv.Serve()
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	primary, backup := newSrv(), newSrv()
	if err := primary.Reconfigure(primary.Store().Epoch()+1, []string{primary.Addr(), backup.Addr()}); err != nil {
		t.Fatal(err)
	}
	c, err := kvclient.OpenReplicated([][]string{{primary.Addr(), backup.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return primary, backup, c
}

// TestFailoverToBackup drives each idempotent operation through a
// primary crash and the backup's promotion: the same client must
// transparently retry on the new primary and see every acknowledged
// write.
func TestFailoverToBackup(t *testing.T) {
	primary, backup, c := startPair(t)
	ctx := context.Background()

	plain := c.NewOID(0)
	super := c.NewOID(0)
	tx := c.Begin()
	tx.Put(plain, kv.NewPlain([]byte("mirrored")))
	tx.ListAdd(super, []byte("k1"), []byte("v1"))
	tx.AttrSet(super, 2, 77)
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	primary.Close()
	if err := backup.Reconfigure(backup.Store().Epoch()+1, []string{backup.Addr()}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		op   func(tx *kvclient.Tx) error
	}{
		{"read plain", func(tx *kvclient.Tx) error {
			v, err := tx.Read(ctx, plain)
			if err != nil {
				return err
			}
			if string(v.Data) != "mirrored" {
				t.Fatalf("read plain after failover: %q", v.Data)
			}
			return nil
		}},
		{"read supervalue", func(tx *kvclient.Tx) error {
			v, err := tx.Read(ctx, super)
			if err != nil {
				return err
			}
			if v.NumCells() != 1 || v.Attrs[2] != 77 {
				t.Fatalf("read super after failover: %+v", v)
			}
			return nil
		}},
		{"readpart window", func(tx *kvclient.Tx) error {
			v, total, err := tx.ReadPart(ctx, super, []byte("k1"), nil, 10)
			if err != nil {
				return err
			}
			if total != 1 || v.NumCells() != 1 {
				t.Fatalf("readpart after failover: total=%d %+v", total, v)
			}
			return nil
		}},
	}
	for _, tc := range cases {
		tx := c.Begin()
		if err := tc.op(tx); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		tx.Abort()
	}

	// A commit attempted after the crash finds the connection already
	// dead (provably unsent), retries on the backup, and succeeds.
	oid2 := c.NewOID(0)
	tx2 := c.Begin()
	tx2.Put(oid2, kv.NewPlain([]byte("post-failover")))
	if err := tx2.Commit(ctx); err != nil {
		t.Fatalf("commit after failover: %v", err)
	}
	check := c.Begin()
	defer check.Abort()
	if v, err := check.Read(ctx, oid2); err != nil || string(v.Data) != "post-failover" {
		t.Fatalf("read own post-failover write: %v %v", v, err)
	}
}

// TestFirstCommitAfterIdlePrimaryDeath: the primary dies while the
// client holds only idle connections to it, and the first thing the
// client does afterwards is a one-shot commit — the one operation that
// may not be retried once sent. The dead connection must be found out
// before the commit is written on it, so the commit is provably unsent,
// rotates to the promoted backup and succeeds; written first and found
// out second, it could only report kv.ErrUncertain.
func TestFirstCommitAfterIdlePrimaryDeath(t *testing.T) {
	primary, backup, c := startPair(t)
	ctx := context.Background()

	oid := c.NewOID(0)
	tx := c.Begin()
	tx.Put(oid, kv.NewPlain([]byte("before")))
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	primary.Close()
	if err := backup.Reconfigure(backup.Store().Epoch()+1, []string{backup.Addr()}); err != nil {
		t.Fatal(err)
	}

	tx = c.Begin()
	tx.Put(oid, kv.NewPlain([]byte("after")))
	if err := tx.Commit(ctx); err != nil {
		t.Fatalf("first commit after the idle primary died: %v (uncertain: %v)", err, errors.Is(err, kv.ErrUncertain))
	}
	check := c.Begin()
	defer check.Abort()
	if v, err := check.Read(ctx, oid); err != nil || string(v.Data) != "after" {
		t.Fatalf("read back from the promoted backup: %v %v", v, err)
	}
}

// stubServer speaks just enough of the rpc frame protocol to answer
// pings, then kills the connection upon the first request of the named
// method — after reading it, so the client's request was definitely
// sent and the outcome is genuinely unknown.
func stubServer(t *testing.T, dieOn string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	hlc := clock.New()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				for {
					p, err := wire.ReadFrame(conn)
					if err != nil {
						return
					}
					r := wire.NewReader(p)
					r.Byte() // frame kind (request)
					id, _ := r.Uvarint()
					method, err := r.String()
					if err != nil || method == dieOn {
						return // hang up without responding
					}
					// Minimal response frame: kind=response(1), id,
					// status=ok(0), body = Ack{Clock}.
					b := wire.NewBuffer(32)
					b.PutByte(1)
					b.PutUvarint(id)
					b.PutByte(0)
					(&kv.Ack{Clock: hlc.Now()}).AppendTo(b)
					if err := wire.WriteFrame(conn, b.Bytes()); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestCommitUncertainOnLostAck pins the commit-ack contract: when the
// connection dies after the commit request was sent but before the
// acknowledgment arrives, the commit may have been applied and
// replicated, so the client must report kv.ErrUncertain — not retry it
// blindly, and not claim failure.
func TestCommitUncertainOnLostAck(t *testing.T) {
	addr := stubServer(t, kv.MethodFastCommit)
	c, err := kvclient.Open([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tx := c.Begin()
	tx.Put(c.NewOID(0), kv.NewPlain([]byte("limbo")))
	err = tx.Commit(context.Background())
	if !errors.Is(err, kv.ErrUncertain) {
		t.Fatalf("commit with lost ack: got %v, want kv.ErrUncertain", err)
	}
}

// TestReadRetriesThroughLostConnection: the same lost-connection
// scenario on a read is idempotent, so it must NOT surface
// ErrUncertain; with no backup to fail over to it errors, with a
// healthy backup it succeeds (covered by TestFailoverToBackup).
func TestReadRetriesThroughLostConnection(t *testing.T) {
	addr := stubServer(t, kv.MethodReadPart)
	c, err := kvclient.Open([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tx := c.Begin()
	defer tx.Abort()
	_, err = tx.Read(context.Background(), c.NewOID(0))
	if err == nil {
		t.Fatal("read against dying stub succeeded")
	}
	if errors.Is(err, kv.ErrUncertain) {
		t.Fatalf("idempotent read reported ErrUncertain: %v", err)
	}
}

// TestAbortFanOutSurvivesCancelledContext: when a prepare round fails
// and the commit's context is already cancelled (often the very reason
// the round failed), the abort fan-out must still reach the
// participants that did vote yes — otherwise their prepare locks
// strand until the orphan sweep. The abort runs on a detached,
// timeout-bounded context.
func TestAbortFanOutSurvivesCancelledContext(t *testing.T) {
	newSrv := func() *kvserver.Server {
		srv := kvserver.NewServer(kvserver.NewStore(nil, kvserver.Config{}))
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		go srv.Serve()
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	srvA, srvB := newSrv(), newSrv()
	c, err := kvclient.Open([]string{srvA.Addr(), srvB.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	oidA, oidB := c.NewOID(0), c.NewOID(1)
	// A foreign prepare holds oidB's lock, so the transaction's prepare
	// on server B votes no while server A votes yes.
	if _, err := srvB.Store().Prepare(424242, srvB.Store().Clock().Now(), []*kv.Op{
		{Kind: kv.OpPut, OID: oidB, Value: kv.NewPlain([]byte("blocker"))},
	}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	tx := c.Begin()
	tx.Put(oidA, kv.NewPlain([]byte("a")))
	tx.Put(oidB, kv.NewPlain([]byte("b")))
	// Cancel the caller's context at the instant the abort fan-out
	// starts: the prepares already ran, server A holds the lock.
	tx.TestHookBeforeAbort = cancel
	if err := tx.Commit(ctx); !errors.Is(err, kv.ErrConflict) {
		t.Fatalf("commit with locked participant: %v, want ErrConflict", err)
	}
	// Commit returns only after the fan-out completes, so the yes
	// voter's lock must already be free.
	if srvA.Store().IsLocked(oidA) {
		t.Fatal("abort fan-out died with the cancelled context; server A lock stranded")
	}
}

// TestOpenMergesServerClocks is the root-cause regression test for the
// seed's failing mirror tests: a server whose hybrid logical clock
// runs ahead of real time (here: 60s of skew, standing in for the
// logical component racing ahead under load) has committed data at
// "future" timestamps. A fresh client's first snapshot must not
// predate those commits, so Open pings every server and merges the
// returned clocks before the first Begin.
func TestOpenMergesServerClocks(t *testing.T) {
	store := kvserver.NewStore(nil, kvserver.Config{})
	store.Clock().SetPhysical(func() uint64 {
		return uint64(time.Now().UnixMilli()) + 60_000
	})
	srv := kvserver.NewServer(store)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	ctx := context.Background()

	c1, err := kvclient.Open([]string{srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	oid := c1.NewOID(0)
	tx := c1.Begin()
	tx.Put(oid, kv.NewPlain([]byte("from-the-future")))
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// The fresh client's wall clock trails the commit timestamp by a
	// minute; only the Open-time clock merge makes the write visible.
	c2, err := kvclient.Open([]string{srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Clock().Last() < store.Clock().Last()-clock.Make(1000, 0) {
		t.Fatalf("client clock %v did not converge toward server clock %v",
			c2.Clock().Last(), store.Clock().Last())
	}
	check := c2.Begin()
	defer check.Abort()
	v, err := check.Read(ctx, oid)
	if err != nil || string(v.Data) != "from-the-future" {
		t.Fatalf("fresh client missed committed data: %v %v", v, err)
	}
}

// cancelledAfterFirstWait is a context cancelled the moment the first
// wait on it is over: live for that wait (the RPC's), done at every
// later one.
type cancelledAfterFirstWait struct {
	context.Context
	waits atomic.Int32
}

func (c *cancelledAfterFirstWait) Done() <-chan struct{} {
	if c.waits.Add(1) == 1 {
		return nil
	}
	done := make(chan struct{})
	close(done)
	return done
}

func (c *cancelledAfterFirstWait) Err() error {
	if c.waits.Load() < 2 {
		return nil
	}
	return context.Canceled
}

// fakeGroup serves a one-member group at a fresh address behind kv's
// error coder: MethodPing teaches the client that configuration, and
// method is answered by the handler h returns for the address (for
// MethodPing, h replaces the ping handler after the client's first).
// It returns a client of the group.
func fakeGroup(t *testing.T, method string, h func(addr string) rpc.AppendHandler) *kvclient.Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := rpc.NewServer()
	srv.SetErrorCoder(func(err error, detail *wire.Buffer) uint64 { return kv.WireErrorCode(err, 0, detail) })
	var opened atomic.Bool
	handler := h(addr)
	srv.RegisterAppend(kv.MethodPing, func(ctx context.Context, p []byte, reply *wire.Buffer) error {
		if method == kv.MethodPing && opened.Load() {
			return handler(ctx, p, reply)
		}
		(&kv.Ack{Epoch: 1, Members: []string{addr}}).AppendTo(reply)
		return nil
	})
	if method != kv.MethodPing {
		srv.RegisterAppend(method, handler)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	c, err := kvclient.Open([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	opened.Store(true)
	t.Cleanup(func() { c.Close() })
	return c
}

// TestCallStopsAtCancellation: a call bounced by a wrong-epoch answer
// that taught it nothing pauses before walking on. A context cancelled
// by then ends the call there, with the context's error — not after the
// pause, by way of another request to the next replica.
func TestCallStopsAtCancellation(t *testing.T) {
	bounced := make(chan struct{}, 8) // one per bounced request; the call makes at most 5
	c := fakeGroup(t, kv.MethodPing, func(addr string) rpc.AppendHandler {
		return func(context.Context, []byte, *wire.Buffer) error {
			bounced <- struct{}{}
			return &kv.WrongEpochError{Epoch: 1, Members: []string{addr}}
		}
	})
	err := c.Ping(&cancelledAfterFirstWait{Context: context.Background()}, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call: got %v, want context.Canceled", err)
	}
	<-bounced
	select {
	case <-bounced:
		t.Fatal("cancelled call went on to send another request")
	case <-time.After(50 * time.Millisecond):
	}
}

// TestUncertainCommitIsNotRedirected: a fast commit whose replication a
// moved-on member refused is uncertain, and the member's rejection that
// its text quotes is no redirect: the commit may have run, so the client
// returns kv.ErrUncertain after its one send.
func TestUncertainCommitIsNotRedirected(t *testing.T) {
	var sends atomic.Int32
	c := fakeGroup(t, kv.MethodFastCommit, func(addr string) rpc.AppendHandler {
		return func(context.Context, []byte, *wire.Buffer) error {
			sends.Add(1)
			member := &kv.WrongEpochError{Epoch: 2, Members: []string{"127.0.0.1:1", addr}}
			return fmt.Errorf("%w: replicating commit: %v", kv.ErrUncertain, member)
		}
	})
	tx := c.Begin()
	tx.Put(c.NewOID(0), kv.NewPlain([]byte("once")))
	err := tx.Commit(context.Background())
	var we *kv.WrongEpochError
	if !errors.Is(err, kv.ErrUncertain) || errors.As(err, &we) {
		t.Fatalf("uncertain commit: got %v, want kv.ErrUncertain and no redirect", err)
	}
	if n := sends.Load(); n != 1 {
		t.Fatalf("uncertain commit sent %d times, want 1", n)
	}
}
