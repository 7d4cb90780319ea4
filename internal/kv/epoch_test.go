package kv

import (
	"errors"
	"fmt"
	"testing"
)

// TestWrongEpochErrorRoundTrip pins the contract ErrWrongEpoch relies
// on to cross the RPC boundary: the canonical Error string must parse
// back into the same epoch and membership, including when wrapped by
// intermediate layers (rpc.AppError flattens everything to text).
func TestWrongEpochErrorRoundTrip(t *testing.T) {
	cases := []*WrongEpochError{
		{Epoch: 1, Members: []string{"127.0.0.1:7000", "127.0.0.1:7001"}},
		{Epoch: 1 << 40, Members: []string{"10.0.0.1:9"}},
		{Epoch: 2, Members: nil},
		// A quorum group is not a pair: the membership list must
		// round-trip at rf >= 3 scale with the primary-first order intact.
		{Epoch: 7, Members: []string{"a:1", "b:2", "c:3", "d:4", "e:5"}},
	}
	for i, in := range cases {
		for _, msg := range []string{
			in.Error(),
			fmt.Sprintf("kvserver: rejecting stale request: %v", in),
			fmt.Sprintf("kv: replicating commit: record from deposed primary: %v", in),
		} {
			out, ok := ParseWrongEpoch(msg)
			if !ok {
				t.Fatalf("case %d: %q did not parse", i, msg)
			}
			if out.Epoch != in.Epoch {
				t.Fatalf("case %d: epoch got %d want %d", i, out.Epoch, in.Epoch)
			}
			if len(out.Members) != len(in.Members) {
				t.Fatalf("case %d: members got %v want %v", i, out.Members, in.Members)
			}
			for j := range in.Members {
				if out.Members[j] != in.Members[j] {
					t.Fatalf("case %d: members got %v want %v", i, out.Members, in.Members)
				}
			}
		}
	}
	if !errors.Is(&WrongEpochError{Epoch: 3}, ErrWrongEpoch) {
		t.Fatal("WrongEpochError does not unwrap to ErrWrongEpoch")
	}
	if _, ok := ParseWrongEpoch("kv: transaction conflict"); ok {
		t.Fatal("unrelated error parsed as wrong-epoch")
	}
	if _, ok := ParseWrongEpoch("kv: wrong epoch: epoch=xyz members=a"); ok {
		t.Fatal("malformed epoch parsed")
	}
}

// TestEpochStampedRequestsRoundTrip verifies every client request
// carries its epoch stamp through the wire codec, and that an
// epoch-unaware (zero) stamp survives too.
func TestEpochStampedRequestsRoundTrip(t *testing.T) {
	for _, epoch := range []uint64{0, 1, 1 << 50} {
		r, err := DecodeReadPartReq((&ReadPartReq{Snap: 7, Epoch: epoch, Item: ReadBatchItem{OID: MakeOID(1, 2)}}).Encode())
		if err != nil || r.Epoch != epoch {
			t.Fatalf("whole-object ReadPartReq epoch %d: %+v %v", epoch, r, err)
		}
		rp, err := DecodeReadPartReq((&ReadPartReq{Snap: 7, Epoch: epoch, Item: ReadBatchItem{OID: MakeOID(1, 2), Part: true, From: []byte("a")}}).Encode())
		if err != nil || rp.Epoch != epoch {
			t.Fatalf("ReadPartReq epoch %d: %+v %v", epoch, rp, err)
		}
		rb, err := DecodeReadBatchReq((&ReadBatchReq{Snap: 7, Epoch: epoch, Items: []ReadBatchItem{{OID: MakeOID(1, 2)}}}).Encode())
		if err != nil || rb.Epoch != epoch {
			t.Fatalf("ReadBatchReq epoch %d: %+v %v", epoch, rb, err)
		}
		p, err := DecodePrepareReq((&PrepareReq{TxID: 9, Start: 3, Ops: sampleOps(), Epoch: epoch}).Encode())
		if err != nil || p.Epoch != epoch || len(p.Ops) != len(sampleOps()) {
			t.Fatalf("PrepareReq epoch %d: %+v %v", epoch, p, err)
		}
		c, err := DecodeCommitReq((&CommitReq{TxID: 9, CommitTS: 11, Epoch: epoch}).Encode())
		if err != nil || c.Epoch != epoch || c.TxID != 9 {
			t.Fatalf("CommitReq epoch %d: %+v %v", epoch, c, err)
		}
		a, err := DecodeAbortReq((&AbortReq{TxID: 9, Epoch: epoch}).Encode())
		if err != nil || a.Epoch != epoch {
			t.Fatalf("AbortReq epoch %d: %+v %v", epoch, a, err)
		}
		f, err := DecodeFastCommitReq((&FastCommitReq{TxID: 9, Start: 3, Ops: sampleOps()[:2], Epoch: epoch}).Encode())
		if err != nil || f.Epoch != epoch || len(f.Ops) != 2 {
			t.Fatalf("FastCommitReq epoch %d: %+v %v", epoch, f, err)
		}
		l, err := DecodeLeaseReq((&LeaseReq{Epoch: epoch}).Encode())
		if err != nil || l.Epoch != epoch {
			t.Fatalf("LeaseReq epoch %d: %+v %v", epoch, l, err)
		}
	}
}

// TestAckPiggybackRoundTrip: acks carry the responder's epoch and
// membership so clients keep their group view fresh.
func TestAckPiggybackRoundTrip(t *testing.T) {
	cases := []Ack{
		{Clock: 5},
		{Clock: 5, Epoch: 2, Members: []string{"127.0.0.1:7000"}},
		{Clock: 1 << 60, Epoch: 9, Members: []string{"a:1", "b:2", "c:3"}},
		// rf >= 3 quorum group: five members, primary first.
		{Clock: 77, Epoch: 12, Members: []string{"p:1", "b:2", "b:3", "b:4", "b:5"}},
	}
	for i, in := range cases {
		out, err := DecodeAck(reply(&in))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if out.Clock != in.Clock || out.Epoch != in.Epoch || len(out.Members) != len(in.Members) {
			t.Fatalf("case %d: got %+v want %+v", i, out, in)
		}
		for j := range in.Members {
			if out.Members[j] != in.Members[j] {
				t.Fatalf("case %d: got %+v want %+v", i, out, in)
			}
		}
	}
	// A membership list over the sanity cap must be rejected.
	big := Ack{Clock: 1, Epoch: 1}
	for i := 0; i < maxMembers+1; i++ {
		big.Members = append(big.Members, "x")
	}
	if _, err := DecodeAck(reply(&big)); err == nil {
		t.Fatal("oversized membership decoded")
	}
}

// TestClockMarkRoundTrip pins the clock-stamp protocol commit handlers
// use on failure paths: the stamp must lead the message, survive the
// flatten-to-text RPC boundary, parse back to the same timestamp, and
// never disturb the tail-anchored wrong-epoch parser when both ride
// the same error.
func TestClockMarkRoundTrip(t *testing.T) {
	base := fmt.Errorf("kvserver: replication quorum lost")
	for _, ts := range []Timestamp{0, 1, 1<<64 - 1} {
		marked := MarkClock(base, ts)
		got, ok := ParseClockMark(marked.Error())
		if !ok || got != ts {
			t.Fatalf("ts %d: parsed (%d, %v) from %q", ts, got, ok, marked)
		}
		if !errors.Is(marked, base) {
			t.Fatalf("ts %d: mark broke the error chain", ts)
		}
	}
	if MarkClock(nil, 5) != nil {
		t.Fatal("marking a nil error produced an error")
	}
	// The stamp must not swallow a wrong-epoch payload further down the
	// message, and must not itself parse from unmarked text.
	we := &WrongEpochError{Epoch: 4, Members: []string{"a:1", "b:2", "c:3"}}
	both := MarkClock(fmt.Errorf("commit rejected: %w", we), 42).Error()
	if ts, ok := ParseClockMark(both); !ok || ts != 42 {
		t.Fatalf("clock mark lost alongside wrong-epoch: %q", both)
	}
	if out, ok := ParseWrongEpoch(both); !ok || out.Epoch != 4 || len(out.Members) != 3 {
		t.Fatalf("wrong-epoch payload lost under clock mark: %q", both)
	}
	if _, ok := ParseClockMark("kv: transaction conflict"); ok {
		t.Fatal("unmarked error parsed as clock mark")
	}
	if _, ok := ParseClockMark("clock=xyz kv: oops"); ok {
		t.Fatal("malformed clock mark parsed")
	}
}
