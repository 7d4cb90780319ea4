package kv

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"yesquel/internal/wire"
)

// wireCase is one sample message of the registry every codec test reads:
// the truncation table, the golden bytes, the hostile-count frames and
// the fuzz seeds. A message added to the protocol gets a row here and is
// covered by all of them at once.
type wireCase struct {
	name   string
	full   []byte                    // the sample, encoded
	decode func([]byte) (any, error) // the message's decoder
	encode func(any) []byte          // its encoder, for what decode returned
}

func newCase[M any](name string, m *M, enc func(*M) []byte, dec func([]byte) (*M, error)) wireCase {
	return wireCase{
		name:   name,
		full:   enc(m),
		decode: func(p []byte) (any, error) { return dec(p) },
		encode: func(v any) []byte { return enc(v.(*M)) },
	}
}

// bufEncoder and readerDecoder adapt the codecs that append to a Buffer
// and read from a Reader (values, ops, records, directories).
func bufEncoder[M any](enc func(*wire.Buffer, *M)) func(*M) []byte {
	return func(m *M) []byte {
		b := wire.NewBuffer(0)
		enc(b, m)
		return b.Bytes()
	}
}

// reply is what m's AppendTo appends to a reply frame, its length
// prefix checked and stripped: the reply's encoding.
func reply[M any, P interface {
	*M
	AppendTo(*wire.Buffer)
}](m *M) []byte {
	var b wire.Buffer
	P(m).AppendTo(&b)
	r := wire.NewReader(b.Bytes())
	if body, err := r.Bytes(); err == nil && r.Remaining() == 0 {
		return body
	}
	return nil
}

// detailCase is the detail of an error reply of the given code: the
// server's clock, then the code's typed error, if it has one.
func detailCase(name string, code uint64, d *errorDetail) wireCase {
	return newCase(name, d, func(d *errorDetail) []byte { return wire.Encode(d, (*errorDetail).wire) },
		func(p []byte) (*errorDetail, error) { return decodeDetail(codeRow(code), p) })
}

func readerDecoder[M any](dec func(*wire.Reader) (M, error)) func([]byte) (*M, error) {
	return func(p []byte) (*M, error) {
		m, err := dec(wire.NewReader(p))
		return &m, err
	}
}

func wireCases() []wireCase {
	sv := NewSuper()
	sv.ListAdd([]byte("k1"), []byte("v1"))
	bounded := NewSuper()
	bounded.Attrs[0], bounded.Attrs[7] = 7, 1<<60
	bounded.LowKey, bounded.HighKey = []byte{}, []byte("zzz")
	bounded.ListAdd([]byte("a"), nil)
	bounded.ListAdd([]byte("b"), []byte("2"))
	recs := []ReplRecord{
		{Kind: RecPrepare, TxID: 2, TS: 20, Ops: sampleOps(), Epoch: 2},
		{Kind: RecEpoch, Epoch: 3, Members: []string{"a:1", "b:2"}},
	}
	dir := &Directory{Version: 3, Routes: []uint32{0, 1}, Groups: [][]string{{"a:1"}, {"b:2", "c:3"}}}
	encValue := bufEncoder(func(b *wire.Buffer, v **Value) { EncodeValue(b, *v) })
	decValue := readerDecoder(DecodeValue)
	encOp := bufEncoder(func(b *wire.Buffer, op **Op) { EncodeOp(b, *op) })
	decOp := readerDecoder(DecodeOp)
	cases := []wireCase{
		newCase("Value tombstone", new(*Value), encValue, decValue),
		newCase("Value plain", func() **Value { v := NewPlain([]byte("payload")); return &v }(), encValue, decValue),
		newCase("Value super", &bounded, encValue, decValue),
		newCase("ReplRecord", &recs[1], bufEncoder(EncodeReplRecord), readerDecoder(DecodeReplRecord)),
		newCase("ReplRecord ops", &recs[0], bufEncoder(EncodeReplRecord), readerDecoder(DecodeReplRecord)),
		newCase("Directory", &dir, bufEncoder(func(b *wire.Buffer, d **Directory) { EncodeDirectory(b, *d) }), readerDecoder(DecodeDirectory)),
		newCase("MirrorBatchReq", &MirrorBatchReq{From: 5, Epoch: 3, Recs: recs}, (*MirrorBatchReq).Encode, DecodeMirrorBatchReq),
		newCase("MirrorBatchReq probe", &MirrorBatchReq{From: 42, Epoch: 3}, (*MirrorBatchReq).Encode, DecodeMirrorBatchReq),
		newCase("MirrorBatchReq chunk", &MirrorBatchReq{From: 42, Epoch: 3, Off: 7, Snap: []byte("piece")}, (*MirrorBatchReq).Encode, DecodeMirrorBatchReq),
		newCase("MirrorBatchReq last", &MirrorBatchReq{From: 42, Epoch: 3, Off: 12, Last: true}, (*MirrorBatchReq).Encode, DecodeMirrorBatchReq),
		newCase("ReadPartReq whole object", &ReadPartReq{Snap: 77, Epoch: 4, Item: ReadBatchItem{OID: MakeOID(1, 2)}}, (*ReadPartReq).Encode, DecodeReadPartReq),
		newCase("ReadPartReq", &ReadPartReq{Snap: 77, Epoch: 4, Item: ReadBatchItem{OID: MakeOID(1, 2), Part: true, From: []byte("a"), To: []byte("m"), Max: 8}}, (*ReadPartReq).Encode, DecodeReadPartReq),
		newCase("ReadPartResp plain value", &ReadPartResp{Found: true, Version: 10, Value: NewPlain([]byte("v")), Clock: 11}, (*ReadPartResp).Encode, DecodeReadPartResp),
		newCase("ReadPartResp", &ReadPartResp{Found: true, Version: 10, Value: sv, Total: 3, Clock: 11}, (*ReadPartResp).Encode, DecodeReadPartResp),
		newCase("ReadBatchReq", &ReadBatchReq{Snap: 1, Epoch: 2, Items: []ReadBatchItem{
			{OID: MakeOID(1, 1)},
			{OID: MakeOID(1, 2), Part: true, From: []byte("f"), To: []byte("t"), Max: 3},
		}}, (*ReadBatchReq).Encode, DecodeReadBatchReq),
		newCase("ReadBatchResp", &ReadBatchResp{Results: []ReadBatchResult{
			{Found: true, Version: 3, Value: NewPlain([]byte("x"))}, {}, {Found: true, Version: 4, Value: sv, Total: 31},
		}, Clock: 9}, reply[ReadBatchResp], DecodeReadBatchResp),
		newCase("PrepareReq", &PrepareReq{TxID: 1, Start: 2, Ops: sampleOps(), Epoch: 3}, (*PrepareReq).Encode, DecodePrepareReq),
		newCase("PrepareResp", &PrepareResp{Proposed: 5, Clock: 6, Cells: []uint64{3, 300}}, reply[PrepareResp], DecodePrepareResp),
		newCase("CommitReq", &CommitReq{TxID: 1, CommitTS: 2, Epoch: 3}, (*CommitReq).Encode, DecodeCommitReq),
		newCase("AbortReq", &AbortReq{TxID: 1, Epoch: 3}, (*AbortReq).Encode, DecodeAbortReq),
		newCase("FastCommitReq", &FastCommitReq{TxID: 1, Start: 2, Ops: sampleOps(), Epoch: 3}, (*FastCommitReq).Encode, DecodeFastCommitReq),
		newCase("FastCommitResp", &FastCommitResp{CommitTS: 50, Clock: 51, Cells: []uint64{129}}, reply[FastCommitResp], DecodeFastCommitResp),
		newCase("Ack", &Ack{Clock: 99, Epoch: 3, Members: []string{"a:1", "b:2"}}, reply[Ack], DecodeAck),
		newCase("DirectoryResp", &DirectoryResp{Dir: dir, Clock: 77}, reply[DirectoryResp], DecodeDirectoryResp),
		detailCase("error detail", CodeConflict, &errorDetail{Clock: 77}),
		detailCase("WrongEpochError", CodeWrongEpoch, &errorDetail{Clock: 77, Err: &WrongEpochError{Epoch: 3, Members: []string{"a:1", "b:2"}}}),
		detailCase("WrongSlotError", CodeWrongSlot, &errorDetail{Clock: 77, Err: &WrongSlotError{Version: 3, Route: 1, Group: 2, Members: []string{"c:3"}}}),
		detailCase("StreamGapError", CodeStreamGap, &errorDetail{Clock: 77, Err: &StreamGapError{Head: 12, StreamEpoch: 2, Last: 0xdeadbeef}}),
		detailCase("CompareError", CodeCompare, &errorDetail{Clock: 77, Err: &CompareError{Op: OpCmpAbsent, OID: MakeOID(1, 2)}}),
	}
	for i, op := range sampleOps() {
		op := op
		cases = append(cases, newCase("Op "+string(rune('a'+i)), &op, encOp, decOp))
	}
	for i, op := range sampleCompares() {
		op := op
		cases = append(cases, newCase("Op cmp "+string(rune('a'+i)), &op, encOp, decOp))
	}
	return cases
}

// sampleCompares is one op of every compare kind (kv "Compare ops"), for
// the codec registry: their layouts are pinned and fuzzed with the rest.
func sampleCompares() []*Op {
	return []*Op{
		{Kind: OpCmpPresent, OID: MakeOID(1, 1), From: []byte("k")},
		{Kind: OpCmpAbsent, OID: MakeOID(1, 2), From: []byte("a"), To: []byte("b")},
		{Kind: OpCmpFences, OID: MakeOID(1, 3), From: []byte{}, To: nil},
		{Kind: OpCmpAttr, OID: MakeOID(1, 4), Attr: 2, Num: 300},
		{Kind: OpCmpMaxCells, OID: MakeOID(1, 5), Num: 128},
	}
}

// goldenHex is every sample's encoding as the hand-written encoders the
// field lists replaced wrote it, less the trailing durability piggyback
// since dropped from seven messages (the lease and mirror requests, the
// two read responses, FastCommitResp and Ack): the record and snapshot
// layouts did not move, so neither the write-ahead log's magic nor the
// snapshot format needed a bump. The compare ops came later, with their
// own kind bytes; of the stream records, only a two-phase prepare
// carries them. Later still, the two commit replies (FastCommitResp,
// PrepareResp) gained their trailing cell counts, one per OpCmpMaxCells
// of the request; no request, record or snapshot layout moved with them.
// Then Ack lost its trailing slot-directory version: the directory is
// fixed at cluster formation, so no reply needs to announce a new one.
var goldenHex = map[string]string{
	"Value tombstone":          "ff",
	"Value plain":              "00077061796c6f6164",
	"Value super":              "010700000000000080808080808080801000037a7a7a01010201610001620132",
	"ReplRecord":               "03030000000000000000000000000000000000000203613a3103623a32",
	"ReplRecord ops":           "010200000000000000020000000000000014000900000100000000000700077061796c6f6164000001000000000008ff010002000000000009020000000000000001016b017602000000000000000200000300030000000000030161017a01010300030000000000040000000004000400000000000507ffffffffffffffff7f050005000000000006026c6f00010000",
	"Directory":                "03020001020103613a310203623a3203633a33",
	"MirrorBatchReq":           "050302010200000000000000020000000000000014000900000100000000000700077061796c6f6164000001000000000008ff010002000000000009020000000000000001016b017602000000000000000200000300030000000000030161017a01010300030000000000040000000004000400000000000507ffffffffffffffff7f050005000000000006026c6f0001000003030000000000000000000000000000000000000203613a3103623a32000000",
	"MirrorBatchReq probe":     "2a0300000000",
	"MirrorBatchReq chunk":     "2a03000705706965636500",
	"MirrorBatchReq last":      "2a03000c0001",
	"ReadPartReq whole object": "000000000000004d0400010000000000020000000000000000",
	"ReadPartReq":              "000000000000004d040001000000000002010161016d0100000008",
	"ReadPartResp plain value": "01000000000000000a00017600000000000000000000000b",
	"ReadPartResp":             "01000000000000000a0100000000000000000000000001026b3102763100000003000000000000000b",
	"ReadBatchReq":             "0000000000000001020200010000000000010000000000000000000100000000000201016601740100000003",
	"ReadBatchResp":            "0301000000000000000300017800000000000000000000000000ff000000000100000000000000040100000000000000000000000001026b310276310000001f0000000000000009",
	"PrepareReq":               "000000000000000100000000000000020900000100000000000700077061796c6f6164000001000000000008ff010002000000000009020000000000000001016b017602000000000000000200000300030000000000030161017a01010300030000000000040000000004000400000000000507ffffffffffffffff7f050005000000000006026c6f00010003",
	"PrepareResp":              "000000000000000500000000000000060203ac02",
	"CommitReq":                "0000000000000001000000000000000203",
	"AbortReq":                 "000000000000000103",
	"FastCommitReq":            "000000000000000100000000000000020900000100000000000700077061796c6f6164000001000000000008ff010002000000000009020000000000000001016b017602000000000000000200000300030000000000030161017a01010300030000000000040000000004000400000000000507ffffffffffffffff7f050005000000000006026c6f00010003",
	"FastCommitResp":           "00000000000000320000000000000033018101",
	"Ack":                      "0000000000000063030203613a3103623a32",
	"DirectoryResp":            "03020001020103613a310203623a3203633a33000000000000004d",
	"error detail":             "000000000000004d",
	"WrongEpochError":          "000000000000004d030203613a3103623a32",
	"WrongSlotError":           "000000000000004d0300000001000000020103633a33",
	"StreamGapError":           "000000000000004d0c02deadbeef",
	"CompareError":             "000000000000004d070001000000000002",
	"Op a":                     "00000100000000000700077061796c6f6164",
	"Op b":                     "000001000000000008ff",
	"Op c":                     "010002000000000009",
	"Op d":                     "020000000000000001016b0176",
	"Op e":                     "0200000000000000020000",
	"Op f":                     "0300030000000000030161017a0101",
	"Op g":                     "03000300000000000400000000",
	"Op h":                     "04000400000000000507ffffffffffffffff7f",
	"Op i":                     "050005000000000006026c6f000100",
	"Op cmp a":                 "060001000000000001016b",
	"Op cmp b":                 "070001000000000002016101620101",
	"Op cmp c":                 "08000100000000000300000100",
	"Op cmp d":                 "09000100000000000402ac02",
	"Op cmp e":                 "0a00010000000000058001",
}

func TestGoldenEncodings(t *testing.T) {
	cases := wireCases()
	if len(cases) != len(goldenHex) {
		t.Errorf("%d samples, %d golden encodings", len(cases), len(goldenHex))
	}
	for _, c := range cases {
		if got, want := hex.EncodeToString(c.full), goldenHex[c.name]; got != want {
			t.Errorf("%s: encodes as\n%s\nwant\n%s", c.name, got, want)
			continue
		}
		m, err := c.decode(c.full)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if again := c.encode(m); !bytes.Equal(again, c.full) {
			t.Errorf("%s: decoded and re-encoded as %x, want %x", c.name, again, c.full)
		}
	}
}

// TestHostileCountsAllocateLittle splices a count of a million into every
// sample at every offset: wherever it lands, decoding allocates no more
// than a small multiple of the frame's own length. Where it lands on a
// list's count, the count is refused before the list is allocated; the
// frames below put it there on purpose.
func TestHostileCountsAllocateLittle(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<20)
	// TotalAlloc is process-wide, so an allocation by another goroutine
	// lands in whichever window is open: averaging over many decodes
	// dilutes it below the bound, which is per decode.
	const runs = 50
	check := func(name string, frame []byte, decode func([]byte) (any, error)) error {
		t.Helper()
		var before, after runtime.MemStats
		var err error
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			_, err = decode(frame)
		}
		runtime.ReadMemStats(&after)
		if alloc := (after.TotalAlloc - before.TotalAlloc) / runs; alloc > uint64(64*len(frame)+4096) {
			t.Errorf("%s: a %d-byte frame allocated %d bytes per decode", name, len(frame), alloc)
		}
		return err
	}
	for _, c := range wireCases() {
		for i := 0; i <= len(c.full); i++ {
			frame := append(append(append([]byte(nil), c.full[:i]...), huge...), c.full[i:]...)
			check(c.name, frame, c.decode)
		}
	}
	commit := make([]byte, 16) // TxID, Start
	super := append([]byte{byte(KindSuper)}, make([]byte, NumAttrs+4)...)
	for _, c := range []struct {
		name   string
		prefix []byte
		decode func([]byte) (any, error)
	}{
		{"FastCommitReq ops", commit, func(p []byte) (any, error) { return DecodeFastCommitReq(p) }},
		{"PrepareReq ops", commit, func(p []byte) (any, error) { return DecodePrepareReq(p) }},
		{"FastCommitResp cells", commit, func(p []byte) (any, error) { return DecodeFastCommitResp(p) }},
		{"PrepareResp cells", commit, func(p []byte) (any, error) { return DecodePrepareResp(p) }},
		{"Value cells", super, func(p []byte) (any, error) { return DecodeValue(wire.NewReader(p)) }},
		{"MirrorBatchReq records", []byte{0, 0}, func(p []byte) (any, error) { return DecodeMirrorBatchReq(p) }},
		{"ReadBatchResp results", nil, func(p []byte) (any, error) { return DecodeReadBatchResp(p) }},
		{"Directory routes", []byte{1}, func(p []byte) (any, error) { return DecodeDirectory(wire.NewReader(p)) }},
	} {
		err := check(c.name, append(c.prefix, huge...), c.decode)
		if !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", c.name, err)
		}
	}
}

// FuzzDecode feeds every message decoder arbitrary bytes: nothing
// panics, and whatever decodes re-encodes to bytes that decode to an
// equal message and re-encode to themselves.
func FuzzDecode(f *testing.F) {
	cases := wireCases()
	for i, c := range cases {
		f.Add(uint8(i), c.full)
	}
	f.Fuzz(func(t *testing.T, which uint8, p []byte) {
		c := cases[int(which)%len(cases)]
		m, err := c.decode(p)
		if err != nil {
			return
		}
		again := c.encode(m)
		m2, err := c.decode(again)
		if err != nil {
			t.Fatalf("%s: %x decodes, its re-encoding %x does not: %v", c.name, p, again, err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("%s: %x decodes to %+v, its re-encoding to %+v", c.name, p, m, m2)
		}
		if third := c.encode(m2); !bytes.Equal(third, again) {
			t.Fatalf("%s: re-encodings differ: %x, %x", c.name, again, third)
		}
	})
}

// TestCodecAllocations pins that a field list costs no allocation of
// its own: an encoding is its one buffer, and a decode allocates only
// what it returns (the message, the op and its two byte strings; the
// value and its cells, whose byte strings a read reply leaves in the
// frame).
func TestCodecAllocations(t *testing.T) {
	fc := &FastCommitReq{TxID: 1, Start: 1, Epoch: 1,
		Ops: []*Op{{Kind: OpListAdd, OID: 1, Cell: Cell{Key: []byte("k"), Value: []byte("v")}}}}
	sv := NewSuper()
	sv.ListAdd([]byte("k"), []byte("v"))
	rp := &ReadPartResp{Found: true, Value: sv, Total: 1}
	fcBytes, rpBytes := fc.Encode(), rp.Encode()
	for _, c := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"FastCommitReq.Encode", 1, func() { fc.Encode() }},
		{"ReadPartResp.Encode", 1, func() { rp.Encode() }},
		{"DecodeFastCommitReq", 5, func() { DecodeFastCommitReq(fcBytes) }},
		{"DecodeReadPartResp", 3, func() { DecodeReadPartResp(rpBytes) }},
	} {
		if n := testing.AllocsPerRun(100, c.f); n > c.max {
			t.Errorf("%s: %v allocations, want %v", c.name, n, c.max)
		}
	}
}

// TestReadRepliesDecodeInPlace: a read reply's keys and values are the
// frame's own bytes, clipped so that an append cannot reach past them,
// and an empty one is still not nil; every other message copies what it
// decodes, since a server keeps it.
func TestReadRepliesDecodeInPlace(t *testing.T) {
	sv := NewSuper()
	sv.ListAdd([]byte("key"), []byte{})
	sv.ListAdd([]byte("next"), []byte("v"))
	for _, c := range []struct {
		name    string
		p       []byte
		decode  func(p []byte) (*Value, error)
		inPlace bool
	}{
		{"ReadPartResp", (&ReadPartResp{Found: true, Value: sv}).Encode(), func(p []byte) (*Value, error) {
			m, err := DecodeReadPartResp(p)
			return m.Value, err
		}, true},
		{"ReadBatchResp", reply(&ReadBatchResp{Results: []ReadBatchResult{{Found: true, Value: sv}}}), func(p []byte) (*Value, error) {
			m, err := DecodeReadBatchResp(p)
			return m.Results[0].Value, err
		}, true},
		{"FastCommitReq", (&FastCommitReq{Ops: []*Op{{Kind: OpPut, OID: 1, Value: sv}}}).Encode(), func(p []byte) (*Value, error) {
			m, err := DecodeFastCommitReq(p)
			return m.Ops[0].Value, err
		}, false},
	} {
		name, p := c.name, c.p
		v, err := c.decode(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v.Cells[0].Value == nil {
			t.Errorf("%s: an empty value decodes as nil", name)
		}
		key, frame := v.Cells[0].Key, bytes.Clone(p)
		if _ = append(key, '!'); !bytes.Equal(p, frame) {
			t.Errorf("%s: an append to a decoded key wrote into the frame", name)
		}
		p[bytes.Index(p, []byte("key"))] = 'K'
		if got := string(key) == "Key"; got != c.inPlace {
			t.Errorf("%s: key %q after the frame changed; decoded in place: %v, want %v", name, key, got, c.inPlace)
		}
	}
}

// TestEncodingOnlyReads encodes every sample from two goroutines at
// once: messages hold values other goroutines read (see Immutability in
// the package doc), so under -race a field list that writes a field
// while encoding fails here.
func TestEncodingOnlyReads(t *testing.T) {
	for _, c := range wireCases() {
		m, err := c.decode(c.full)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		done := make(chan []byte)
		go func() { done <- c.encode(m) }()
		mine := c.encode(m)
		if theirs := <-done; !bytes.Equal(mine, theirs) {
			t.Fatalf("%s: concurrent encodings differ", c.name)
		}
	}
}
