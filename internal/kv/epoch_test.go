package kv

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"yesquel/internal/rpc"
	"yesquel/internal/wire"
)

// TestWrongEpochErrorRoundTrip pins the contract ErrWrongEpoch relies
// on to cross the RPC boundary: the typed error, wrapped by whatever
// layers the handler adds, comes back from the error reply with the same
// epoch and membership. A reply that only quotes one in its text, or
// whose detail is cut short, carries no typed form.
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
		for _, err := range []error{
			in,
			fmt.Errorf("kvserver: rejecting stale request: %w", in),
		} {
			back, _ := crossWire(err, 9)
			var out *WrongEpochError
			if !errors.As(back, &out) || !reflect.DeepEqual(out, in) {
				t.Fatalf("case %d: %v decoded as %#v", i, err, back)
			}
		}
		quoted, _ := crossWire(fmt.Errorf("kv: replicating commit: record from deposed primary: %v", in), 9)
		var out *WrongEpochError
		if errors.As(quoted, &out) || errors.Is(quoted, ErrWrongEpoch) {
			t.Fatalf("case %d: a quoted rejection decoded as %#v", i, quoted)
		}
	}
	var detail wire.Buffer
	code := WireErrorCode(cases[0], 9, &detail)
	cut := detail.Bytes()[:detail.Len()-1]
	back, _ := DecodeError(&rpc.AppError{Msg: cases[0].Error(), Code: code, Detail: cut})
	var out *WrongEpochError
	if !errors.Is(back, ErrWrongEpoch) || errors.As(back, &out) {
		t.Fatalf("a cut detail decoded as %#v", back)
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
