package kvserver_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"yesquel/internal/kv"
	"yesquel/internal/rpc"
)

// TestMalformedRequestsAreRefused sends every client and mirror method
// a truncated payload over a live server. Each gets the typed
// ErrBadRequest reply, the connection stays usable, and a ping still
// answers afterwards. Requests stamped with an epoch the server has
// left behind get ErrWrongEpoch, and none of them executes.
func TestMalformedRequestsAreRefused(t *testing.T) {
	srv := startServer(t)
	// A sole-member group moved to epoch 2, so epoch 1 is stale.
	formGroup(t, srv)
	c, err := rpc.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	call := func(method string, p []byte) error {
		_, err := c.Call(ctx, method, p)
		err, _ = kv.DecodeError(err)
		return err
	}

	oid := kv.MakeOID(0, 1)
	ops := []*kv.Op{{Kind: kv.OpPut, OID: oid, Value: kv.NewPlain([]byte("v"))}}
	item := kv.ReadBatchItem{OID: oid, Part: true, From: []byte("a"), To: []byte("z"), Max: 4}
	epoch := srv.Store().Epoch()
	for _, m := range []struct {
		method string
		p      []byte
	}{
		{kv.MethodReadPart, (&kv.ReadPartReq{Snap: 1, Epoch: epoch, Item: item}).Encode()},
		{kv.MethodReadBatch, (&kv.ReadBatchReq{Snap: 1, Epoch: epoch, Items: []kv.ReadBatchItem{item, item}}).Encode()},
		{kv.MethodPrepare, (&kv.PrepareReq{TxID: 1, Start: 1, Ops: ops, Epoch: epoch}).Encode()},
		{kv.MethodCommit, (&kv.CommitReq{TxID: 1, CommitTS: 2, Epoch: epoch}).Encode()},
		{kv.MethodAbort, (&kv.AbortReq{TxID: 1, Epoch: epoch}).Encode()},
		{kv.MethodFastCommit, (&kv.FastCommitReq{TxID: 1, Start: 1, Ops: ops, Epoch: epoch}).Encode()},
		{kv.MethodMirrorBatch, (&kv.MirrorBatchReq{From: 1, Epoch: epoch, Snap: []byte("piece")}).Encode()},
	} {
		if err := call(m.method, m.p[:len(m.p)-1]); !errors.Is(err, kv.ErrBadRequest) {
			t.Errorf("%s with a truncated payload: err = %v, want ErrBadRequest", m.method, err)
		}
	}
	if err := call(kv.MethodPing, nil); err != nil {
		t.Fatalf("ping after the malformed requests: %v", err)
	}

	stale := epoch - 1
	if err := call(kv.MethodPrepare, (&kv.PrepareReq{TxID: 2, Start: 1, Ops: ops, Epoch: stale}).Encode()); !errors.Is(err, kv.ErrWrongEpoch) {
		t.Errorf("prepare at stale epoch %d: err = %v, want ErrWrongEpoch", stale, err)
	}
	if srv.Store().IsLocked(oid) {
		t.Error("a prepare refused for its epoch left a lock")
	}
	if err := call(kv.MethodAbort, (&kv.AbortReq{TxID: 2, Epoch: stale}).Encode()); !errors.Is(err, kv.ErrWrongEpoch) {
		t.Errorf("abort at stale epoch %d: err = %v, want ErrWrongEpoch", stale, err)
	}
	if st := srv.Store().Stats(); st.Prepares != 0 || st.Aborts != 0 {
		t.Errorf("refused requests executed: %d prepares, %d aborts", st.Prepares, st.Aborts)
	}
}
