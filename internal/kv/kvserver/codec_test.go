package kvserver

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"yesquel/internal/kv"
)

func sampleSnapshot() *stateSnapshot {
	sv := kv.NewSuper()
	sv.ListAdd([]byte("k"), []byte("v"))
	return &stateSnapshot{
		Seq: 9, Epoch: 2, Members: []string{"a:1", "b:2"}, Clock: 77,
		Objects: []snapObject{
			{OID: kv.MakeOID(1, 1), GCFloor: 3, Versions: []snapVersion{
				{TS: 4, Val: sv, Touched: map[string]struct{}{"k": {}, "j": {}}},
				{TS: 5, Val: nil, Structural: true},
			}},
			{OID: kv.MakeOID(1, 2), Versions: []snapVersion{{TS: 6, Val: kv.NewPlain([]byte("p"))}}},
		},
		Prepared: []snapPrepare{{TxID: 7, Epoch: 2, TS: 8, Ops: []*kv.Op{{Kind: kv.OpDelete, OID: kv.MakeOID(1, 2)}}}},
		Decided:  []snapDecision{{TxID: 6, Commit: true, TS: 5}},
	}
}

func encodeSnapshotWhole(t *testing.T, sn *stateSnapshot) []byte {
	t.Helper()
	var enc []byte
	if err := encodeSnapshot(sn, 7, func(piece []byte) error { enc = append(enc, piece...); return nil }); err != nil {
		t.Fatal(err)
	}
	return enc
}

// snapshotHex is sampleSnapshot as the hand-written encoder the field
// lists replaced wrote it: the layout did not move, so snapFormat
// stands.
const snapshotHex = "0109020203613a3103623a32000000000000004d02000100000000000100000000000000030200000000000000040100000000000000000000000001016b01760002016a016b0000000000000005ff010000010000000000020000000000000000010000000000000006000170000001000000000000000702000000000000000801010001000000000002010000000000000006010000000000000005"

func TestSnapshotEncodingRoundTrips(t *testing.T) {
	sn := sampleSnapshot()
	enc := encodeSnapshotWhole(t, sn)
	if got := hex.EncodeToString(enc); got != snapshotHex {
		t.Fatalf("snapshot encodes as\n%s\nwant\n%s", got, snapshotHex)
	}
	got, err := decodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sn) {
		t.Fatalf("snapshot round trip:\n got %+v\nwant %+v", got, sn)
	}
}

// TestSnapshotHostileCountsAllocateLittle: a snapshot arrives from a
// peer, so a count of a million spliced in anywhere must not make the
// receiver allocate more than a small multiple of the bytes it was
// sent, and one spliced where the object count goes is refused.
func TestSnapshotHostileCountsAllocateLittle(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<20)
	check := func(name string, frame []byte) error {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeSnapshot(frame)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(64*len(frame)+4096) {
			t.Errorf("%s: a %d-byte frame allocated %d bytes", name, len(frame), alloc)
		}
		return err
	}
	full := encodeSnapshotWhole(t, sampleSnapshot())
	if _, err := decodeSnapshot(full); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= len(full); i++ {
		check("snapshot", append(append(append([]byte(nil), full[:i]...), huge...), full[i:]...))
	}
	// Format, Seq, Epoch, no members, Clock: then the object count.
	objects := append([]byte{snapFormat, 1, 1, 0}, make([]byte, 8)...)
	if err := check("snapshot objects", append(objects, huge...)); !errors.Is(err, kv.ErrBadRequest) {
		t.Errorf("snapshot objects: err = %v, want ErrBadRequest", err)
	}
}
