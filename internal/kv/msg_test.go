package kv

import (
	"bytes"
	"errors"
	"testing"

	"yesquel/internal/wire"
)

// TestSnapMessagesRoundTrip covers the chunked state-transfer pair.
func TestSnapMessagesRoundTrip(t *testing.T) {
	req := &SnapReq{ID: 7, Chunk: 3}
	gotReq, err := DecodeSnapReq(req.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if *gotReq != *req {
		t.Fatalf("snap req: %+v != %+v", gotReq, req)
	}
	resp := &SnapResp{ID: 7, Seq: 1234, Chunk: 3, Chunks: 9, Data: []byte("opaque snapshot slice"), Clock: 55}
	gotResp, err := DecodeSnapResp(reply(resp))
	if err != nil {
		t.Fatal(err)
	}
	if gotResp.ID != resp.ID || gotResp.Seq != resp.Seq || gotResp.Chunk != resp.Chunk ||
		gotResp.Chunks != resp.Chunks || gotResp.Clock != resp.Clock || !bytes.Equal(gotResp.Data, resp.Data) {
		t.Fatalf("snap resp: %+v != %+v", gotResp, resp)
	}
}

// sampleOps covers every op kind, including nil/empty byte-slice edge
// cases the wire format distinguishes.
func sampleOps() []*Op {
	return []*Op{
		{Kind: OpPut, OID: MakeOID(1, 7), Value: NewPlain([]byte("payload"))},
		{Kind: OpPut, OID: MakeOID(1, 8), Value: nil}, // tombstone-valued put
		{Kind: OpDelete, OID: MakeOID(2, 9)},
		{Kind: OpListAdd, OID: MakeOID(0, 1), Cell: Cell{Key: []byte("k"), Value: []byte("v")}},
		{Kind: OpListAdd, OID: MakeOID(0, 2), Cell: Cell{Key: []byte{}, Value: nil}},
		{Kind: OpListDelRange, OID: MakeOID(3, 3), From: []byte("a"), To: []byte("z")},
		{Kind: OpListDelRange, OID: MakeOID(3, 4), From: nil, To: nil},
		{Kind: OpAttrSet, OID: MakeOID(4, 5), Attr: 7, Num: 1<<63 - 1},
		{Kind: OpSetBounds, OID: MakeOID(5, 6), Low: []byte("lo"), High: nil},
	}
}

func opsEqual(t *testing.T, got, want []*Op) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("op count: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Kind != w.Kind || g.OID != w.OID || g.Attr != w.Attr || g.Num != w.Num {
			t.Fatalf("op %d scalar fields: got %+v, want %+v", i, g, w)
		}
		if (g.Value == nil) != (w.Value == nil) || (g.Value != nil && !g.Value.Equal(w.Value)) {
			t.Fatalf("op %d value: got %+v, want %+v", i, g.Value, w.Value)
		}
		// Cell contents are plain length-prefixed (nil and empty encode
		// identically); the range/bounds fields carry has-flags, so
		// nil-ness must survive the round trip exactly.
		if !bytes.Equal(g.Cell.Key, w.Cell.Key) || !bytes.Equal(g.Cell.Value, w.Cell.Value) {
			t.Fatalf("op %d cell: got %+v, want %+v", i, g.Cell, w.Cell)
		}
		for _, pair := range [][2][]byte{
			{g.From, w.From}, {g.To, w.To}, {g.Low, w.Low}, {g.High, w.High},
		} {
			if (pair[0] == nil) != (pair[1] == nil) || !bytes.Equal(pair[0], pair[1]) {
				t.Fatalf("op %d byte field: got %v, want %v", i, pair[0], pair[1])
			}
		}
	}
}

// recEqual compares two replication records field by field.
func recEqual(t *testing.T, got, want ReplRecord) {
	t.Helper()
	if got.Kind != want.Kind || got.TxID != want.TxID || got.TS != want.TS || got.Commit != want.Commit {
		t.Fatalf("record scalar fields: got %+v, want %+v", got, want)
	}
	if got.Epoch != want.Epoch {
		t.Fatalf("record epoch: got %d, want %d", got.Epoch, want.Epoch)
	}
	if len(got.Members) != len(want.Members) {
		t.Fatalf("record members: got %v, want %v", got.Members, want.Members)
	}
	for i := range want.Members {
		if got.Members[i] != want.Members[i] {
			t.Fatalf("record members: got %v, want %v", got.Members, want.Members)
		}
	}
	opsEqual(t, got.Ops, want.Ops)
}

func TestMirrorBatchReqRoundTrip(t *testing.T) {
	cases := []MirrorBatchReq{
		{Recs: nil},
		{Recs: []SyncRec{{Seq: 0, Rec: ReplRecord{Kind: RecCommit, TxID: 7, TS: 1}}}},
		{Recs: []SyncRec{
			{Seq: 5, Rec: ReplRecord{Kind: RecCommit, TxID: 1, TS: 10, Ops: sampleOps()[:3], Epoch: 2}},
			{Seq: 6, Rec: ReplRecord{Kind: RecPrepare, TxID: 2, TS: 20, Ops: sampleOps()[3:], Epoch: 2}},
			{Seq: 7, Rec: ReplRecord{Kind: RecDecide, TxID: 2, TS: 30, Commit: true, Epoch: 1 << 32}},
			{Seq: 8, Rec: ReplRecord{Kind: RecDecide, TxID: 1 << 63, TS: 0, Commit: false}},
			{Seq: 9, Rec: ReplRecord{Kind: RecEpoch, Epoch: 3, Members: []string{"127.0.0.1:7000", "127.0.0.1:7001"}}},
			{Seq: 1 << 40, Rec: ReplRecord{Kind: RecCommit, TS: Timestamp(1) << 60, Ops: sampleOps()}},
		}},
	}
	for i, in := range cases {
		out, err := DecodeMirrorBatchReq(in.Encode())
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(out.Recs) != len(in.Recs) {
			t.Fatalf("case %d: got %d records, want %d", i, len(out.Recs), len(in.Recs))
		}
		for j := range in.Recs {
			if out.Recs[j].Seq != in.Recs[j].Seq {
				t.Fatalf("case %d record %d: got seq=%d, want seq=%d", i, j, out.Recs[j].Seq, in.Recs[j].Seq)
			}
			recEqual(t, out.Recs[j].Rec, in.Recs[j].Rec)
		}
	}
}

func TestMirrorBatchReqDecodeErrors(t *testing.T) {
	for _, p := range [][]byte{nil, {0x02}, {0x02, 0x01}, {0x01, 0x01, 0xee}} {
		if _, err := DecodeMirrorBatchReq(p); err == nil {
			t.Fatalf("decode of truncated/garbage payload %v succeeded", p)
		}
	}
	// A record-count sanity bound: an absurd count must be rejected
	// before any allocation, not trusted.
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	if _, err := DecodeMirrorBatchReq(huge); err == nil {
		t.Fatal("decode of absurd record count succeeded")
	}
	// An unknown record kind inside a batch is rejected, not decoded as
	// garbage.
	bad := (&MirrorBatchReq{Recs: []SyncRec{{Seq: 1, Rec: ReplRecord{Kind: RecCommit, TxID: 1, TS: 1}}}}).Encode()
	bad[2] = 0xee // count uvarint, seq uvarint, then the record's kind byte
	if _, err := DecodeMirrorBatchReq(bad); err == nil {
		t.Fatal("decode of unknown record kind inside a batch succeeded")
	}
}

func TestSyncReqRoundTrip(t *testing.T) {
	cases := []SyncReq{
		{From: 0, Max: 0},
		{From: 42, Max: 512},
		{From: 42, Max: 512, Epoch: 3},
		{From: 1<<64 - 1, Max: 1<<32 - 1, Epoch: 1<<64 - 1},
	}
	for i, in := range cases {
		out, err := DecodeSyncReq(in.Encode())
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if *out != in {
			t.Fatalf("case %d: got %+v, want %+v", i, *out, in)
		}
	}
}

func TestSyncRespRoundTrip(t *testing.T) {
	cases := []SyncResp{
		{Records: nil, Head: 0, Clock: 5},
		// The truncation signal a snapshot-era server sends a too-old
		// backup: no records, install a snapshot and resume at LogBase+.
		{Records: nil, Head: 70, Clock: 6, TooOld: true, LogBase: 64},
		{
			Records: []SyncRec{
				{Seq: 0, Rec: ReplRecord{Kind: RecCommit, TxID: 1, TS: 10, Ops: sampleOps()[:3]}},
				{Seq: 1, Rec: ReplRecord{Kind: RecPrepare, TxID: 2, TS: 20, Ops: sampleOps()[3:5]}},
				{Seq: 2, Rec: ReplRecord{Kind: RecDecide, TxID: 2, TS: 30, Commit: true}},
				{Seq: 3, Rec: ReplRecord{Kind: RecCommit, TS: 40, Ops: sampleOps()}},
			},
			Head:  4,
			Clock: 99,
		},
	}
	for i, in := range cases {
		out, err := DecodeSyncResp(reply(&in))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if out.Head != in.Head || out.Clock != in.Clock || len(out.Records) != len(in.Records) {
			t.Fatalf("case %d: got head=%d clock=%d n=%d, want head=%d clock=%d n=%d",
				i, out.Head, out.Clock, len(out.Records), in.Head, in.Clock, len(in.Records))
		}
		if out.TooOld != in.TooOld || out.LogBase != in.LogBase {
			t.Fatalf("case %d: got tooOld=%v base=%d, want tooOld=%v base=%d",
				i, out.TooOld, out.LogBase, in.TooOld, in.LogBase)
		}
		for j := range in.Records {
			if out.Records[j].Seq != in.Records[j].Seq {
				t.Fatalf("case %d record %d: got %+v, want %+v", i, j, out.Records[j], in.Records[j])
			}
			recEqual(t, out.Records[j].Rec, in.Records[j].Rec)
		}
	}
}

func TestSyncRespDecodeErrors(t *testing.T) {
	for _, p := range [][]byte{nil, {0x05}, {0x01, 0x00}} {
		if _, err := DecodeSyncResp(p); err == nil {
			t.Fatalf("decode of truncated payload %v succeeded", p)
		}
	}
}

// TestReadPartReqRoundTrip covers the one-item request: a whole-object
// read, a window, and the rule that an item without Part loses whatever
// window it carried on the way in (ReadBatchItem.Windowed).
func TestReadPartReqRoundTrip(t *testing.T) {
	for _, item := range []ReadBatchItem{
		{OID: MakeOID(1, 2)},
		{OID: MakeOID(1, 2), Part: true, From: []byte("a"), To: []byte("m"), Max: 8},
		{OID: MakeOID(1, 2), Part: true, From: []byte{}}, // tail window: nil To survives
		{OID: MakeOID(1, 2), From: []byte("a"), To: []byte("m"), Max: 8},
	} {
		req := &ReadPartReq{Snap: 77, Epoch: 4, Item: item}
		got, err := DecodeReadPartReq(req.Encode())
		if err != nil || got.Snap != req.Snap || got.Epoch != req.Epoch {
			t.Fatalf("read part req: got %+v (%v), want %+v", got, err, req)
		}
		if g, w := got.Item, item.Windowed(); !sameReadItem(g, w) {
			t.Fatalf("item: got %+v, want %+v", g, w)
		}
	}
}

// sameReadItem compares two items field by field, telling a nil To
// (unbounded) from an empty one.
func sameReadItem(g, w ReadBatchItem) bool {
	return g.OID == w.OID && g.Part == w.Part && g.Max == w.Max &&
		bytes.Equal(g.From, w.From) && (g.To == nil) == (w.To == nil) && bytes.Equal(g.To, w.To)
}

// TestTruncatedMessagesFailToDecode pins the one-layout rule for every
// kv message: each is encoded fully populated and then cut at every
// prefix length, and no prefix may pass for a shorter message. Cutting
// into the last field — for most messages a field that used to be
// optional — is a short buffer; an interior cut may instead trip a
// count-versus-payload allocation guard.
func TestTruncatedMessagesFailToDecode(t *testing.T) {
	for _, c := range wireCases() {
		if _, err := c.decode(c.full); err != nil {
			t.Fatalf("%s: full message does not decode: %v", c.name, err)
		}
		for cut := 0; cut < len(c.full); cut++ {
			_, err := c.decode(c.full[:cut])
			if err == nil {
				t.Fatalf("%s truncated to %d of %d bytes decoded successfully", c.name, cut, len(c.full))
			}
			if !errors.Is(err, wire.ErrShortBuffer) && (cut == len(c.full)-1 || !errors.Is(err, ErrBadRequest)) {
				t.Fatalf("%s truncated to %d of %d bytes: err = %v, want ErrShortBuffer", c.name, cut, len(c.full), err)
			}
		}
	}
}

// TestReadBatchMessagesRoundTrip covers the batched-read pair: mixed
// whole-object and windowed items, nil-vs-set windows, and found-vs-
// absent results.
func TestReadBatchMessagesRoundTrip(t *testing.T) {
	sv := NewSuper()
	sv.ListAdd([]byte("k1"), []byte("v1"))
	req := &ReadBatchReq{
		Snap:  42,
		Epoch: 7,
		Items: []ReadBatchItem{
			{OID: MakeOID(1, 10)},
			{OID: MakeOID(2, 20), Part: true, From: []byte("a"), To: []byte("m"), Max: 8},
			{OID: MakeOID(3, 30), Part: true, From: []byte{}, To: nil}, // tail window
		},
	}
	got, err := DecodeReadBatchReq(req.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Snap != req.Snap || got.Epoch != req.Epoch || len(got.Items) != len(req.Items) {
		t.Fatalf("req header: %+v != %+v", got, req)
	}
	for i := range req.Items {
		if g, w := got.Items[i], req.Items[i]; !sameReadItem(g, w) {
			t.Fatalf("item %d: got %+v, want %+v", i, g, w)
		}
	}

	resp := &ReadBatchResp{
		Results: []ReadBatchResult{
			{Found: true, Version: 9, Value: NewPlain([]byte("payload"))},
			{}, // absent object: Found=false, nil value
			{Found: true, Version: 11, Value: sv, Total: 31},
		},
		Clock: 55,
	}
	gotR, err := DecodeReadBatchResp(reply(resp))
	if err != nil {
		t.Fatal(err)
	}
	if gotR.Clock != resp.Clock || len(gotR.Results) != len(resp.Results) {
		t.Fatalf("resp header: %+v != %+v", gotR, resp)
	}
	for i := range resp.Results {
		g, w := gotR.Results[i], resp.Results[i]
		if g.Found != w.Found || g.Version != w.Version || g.Total != w.Total {
			t.Fatalf("result %d scalars: got %+v, want %+v", i, g, w)
		}
		if (g.Value == nil) != (w.Value == nil) || (g.Value != nil && !g.Value.Equal(w.Value)) {
			t.Fatalf("result %d value: got %+v, want %+v", i, g.Value, w.Value)
		}
	}
}

// TestReadBatchDecodeErrors exercises the count-versus-payload
// allocation guards (truncation is covered by
// TestTruncatedMessagesFailToDecode): a claimed count is bounded by the
// fewest bytes an item or a result really occupies, so the hostile
// frames below — whose counts a "two bytes each" bound admits, sizing an
// allocation dozens of times the frame — are refused before anything is
// allocated, as ErrBadRequest rather than as the short buffer the first
// undecodable item would report afterwards.
func TestReadBatchDecodeErrors(t *testing.T) {
	garbage := make([]byte, 4096)
	for _, c := range []struct {
		name   string
		frame  []byte
		decode func([]byte) error
	}{
		{"absurd item count", readBatchReqPrefix(1 << 40), func(p []byte) error { _, err := DecodeReadBatchReq(p); return err }},
		{"absurd result count", readBatchRespPrefix(1 << 40), func(p []byte) error { _, err := DecodeReadBatchResp(p); return err }},
		{"hostile item count", append(readBatchReqPrefix(uint64(len(garbage))/2), garbage...),
			func(p []byte) error { _, err := DecodeReadBatchReq(p); return err }},
		{"hostile result count", append(readBatchRespPrefix(uint64(len(garbage))/2), garbage...),
			func(p []byte) error { _, err := DecodeReadBatchResp(p); return err }},
		{"one item too many", append(readBatchReqPrefix(uint64(len(garbage)/minReadItemSize+1)), garbage...),
			func(p []byte) error { _, err := DecodeReadBatchReq(p); return err }},
		{"one result too many", append(readBatchRespPrefix(uint64(len(garbage)/minReadResultSize+1)), garbage...),
			func(p []byte) error { _, err := DecodeReadBatchResp(p); return err }},
	} {
		if err := c.decode(c.frame); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", c.name, err)
		}
	}
	// The bound is the true minimum: a frame of exactly that many
	// smallest items decodes.
	n := len(garbage) / minReadItemSize
	req := &ReadBatchReq{Snap: 1, Epoch: 2, Items: make([]ReadBatchItem, n)}
	if got, err := DecodeReadBatchReq(req.Encode()); err != nil || len(got.Items) != n {
		t.Fatalf("batch of %d smallest items: %v", n, err)
	}
	resp := &ReadBatchResp{Results: make([]ReadBatchResult, n)}
	if got, err := DecodeReadBatchResp(reply(resp)); err != nil || len(got.Results) != n {
		t.Fatalf("batch of %d smallest results: %v", n, err)
	}
}

// TestReadBatchReqEncodeSizesItsBuffer pins that the request encoder
// counts the window keys: a scan's planned rounds carry a To on
// every item, and a buffer sized without them regrows mid-encode.
func TestReadBatchReqEncodeSizesItsBuffer(t *testing.T) {
	items := make([]ReadBatchItem, 8)
	for i := range items {
		items[i] = ReadBatchItem{OID: MakeOID(1, uint64(i)), Part: true, From: bytes.Repeat([]byte("f"), 40), To: bytes.Repeat([]byte("t"), 40)}
	}
	req := &ReadBatchReq{Snap: 1, Epoch: 2, Items: items}
	if allocs := testing.AllocsPerRun(100, func() { req.Encode() }); allocs > 2 {
		t.Fatalf("ReadBatchReq.Encode: %v allocations, want the buffer and its header only", allocs)
	}
}

// readBatchReqPrefix hand-builds the bytes ahead of a ReadBatchReq's
// items with an arbitrary (possibly absurd) item count.
func readBatchReqPrefix(count uint64) []byte {
	b := wire.NewBuffer(32)
	b.PutUint64(1)  // Snap
	b.PutUvarint(2) // Epoch
	b.PutUvarint(count)
	return b.Bytes()
}

// readBatchRespPrefix hand-builds the count ahead of a ReadBatchResp's
// results.
func readBatchRespPrefix(count uint64) []byte {
	b := wire.NewBuffer(16)
	b.PutUvarint(count)
	return b.Bytes()
}
