package kv

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"yesquel/internal/wire"
)

func sampleDirectory() *Directory {
	return &Directory{
		Version: 7,
		Routes:  []uint32{0, 1, 2, 1},
		Groups: [][]string{
			{"a:1", "a:2"},
			{"b:1"},
			{"c:1", "c:2", "c:3"},
		},
	}
}

func TestDirectoryRoundTrip(t *testing.T) {
	d := sampleDirectory()
	b := wire.NewBuffer(64)
	EncodeDirectory(b, d)
	got, err := DecodeDirectory(wire.NewReader(b.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, d)
	}
}

func TestDirectoryDecodeTrailingBytesLeftUnread(t *testing.T) {
	// Messages may append optional fields after an embedded directory;
	// the decoder must stop at the directory's end.
	d := sampleDirectory()
	b := wire.NewBuffer(64)
	EncodeDirectory(b, d)
	b.PutUint64(0xdeadbeef)
	r := wire.NewReader(b.Bytes())
	if _, err := DecodeDirectory(r); err != nil {
		t.Fatalf("decode: %v", err)
	}
	tail, err := r.Uint64()
	if err != nil || tail != 0xdeadbeef {
		t.Fatalf("trailing field consumed by directory decoder: %v %x", err, tail)
	}
}

func TestDirectoryDecodeRejectsBadShapes(t *testing.T) {
	encode := func(d *Directory) []byte {
		b := wire.NewBuffer(64)
		EncodeDirectory(b, d)
		return b.Bytes()
	}
	cases := []struct {
		name string
		p    []byte
	}{
		{"zero routes", encode(&Directory{Version: 1, Routes: nil, Groups: [][]string{{"a"}}})},
		{"route names missing group", encode(&Directory{Version: 1, Routes: []uint32{5}, Groups: [][]string{{"a"}}})},
		{"truncated", encode(sampleDirectory())[:3]},
	}
	for _, tc := range cases {
		if _, err := DecodeDirectory(wire.NewReader(tc.p)); err == nil {
			t.Errorf("%s: decode accepted malformed directory", tc.name)
		}
	}
}

func TestDirectoryRouting(t *testing.T) {
	d := sampleDirectory() // 4 routes
	oid := MakeOID(6, 99)  // slot 6 → route 6%4=2 → group 2
	if r := d.RouteFor(oid); r != 2 {
		t.Fatalf("RouteFor = %d, want 2", r)
	}
	if g := d.GroupFor(oid); g != 2 {
		t.Fatalf("GroupFor = %d, want 2", g)
	}
}

func TestDirectoryClone(t *testing.T) {
	d := sampleDirectory()
	c := d.Clone()
	if !reflect.DeepEqual(c, d) {
		t.Fatalf("clone differs: %+v vs %+v", c, d)
	}
	c.Routes[0] = 9
	c.Groups[0][0] = "mutated"
	if d.Routes[0] == 9 || d.Groups[0][0] == "mutated" {
		t.Fatal("Clone shares storage with the original")
	}
	if (*Directory)(nil).Clone() != nil {
		t.Fatal("nil Clone not nil")
	}
}

func TestDirectoryRespRoundTrip(t *testing.T) {
	m := &DirectoryResp{Dir: sampleDirectory(), Clock: 42}
	got, err := DecodeDirectoryResp(reply(m))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestWrongSlotErrorRoundTrip(t *testing.T) {
	ws := &WrongSlotError{Version: 3, Route: 1, Group: 2, Members: []string{"x:1", "y:2"}}
	if !errors.Is(ws, ErrWrongSlot) {
		t.Fatal("WrongSlotError does not unwrap to ErrWrongSlot")
	}
	if code := wireCode(ws); code != CodeWrongSlot {
		t.Fatalf("WireErrorCode = %d, want %d", code, CodeWrongSlot)
	}

	// The typed redirect survives the handler's wrapping and the trip;
	// an empty member list comes back empty, not [""].
	for _, in := range []*WrongSlotError{ws, {Version: 1}} {
		back, _ := crossWire(fmt.Errorf("handler: %w", in), 77)
		var got *WrongSlotError
		if !errors.As(back, &got) || !reflect.DeepEqual(got, in) {
			t.Fatalf("%v decoded as %#v", in, back)
		}
	}
	back, _ := crossWire(&WrongEpochError{Epoch: 3, Members: []string{"a"}}, 77)
	if errors.Is(back, ErrWrongSlot) {
		t.Fatal("a wrong-epoch reply decoded as a wrong slot")
	}
}
