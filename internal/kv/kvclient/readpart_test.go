package kvclient_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"yesquel/internal/kv"
)

func TestTxReadPartBasic(t *testing.T) {
	_, c := startCluster(t, 2)
	ctx := context.Background()
	oid := c.NewOID(1)

	init := c.Begin()
	v := kv.NewSuper()
	for i := 0; i < 20; i++ {
		v.ListAdd([]byte(fmt.Sprintf("c%02d", i)), []byte{byte(i)})
	}
	init.Put(oid, v)
	if err := init.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	tx := c.Begin()
	defer tx.Abort()
	part, total, err := tx.ReadPart(ctx, oid, []byte("c05"), []byte("c05\x00"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if total != 20 {
		t.Fatalf("total = %d", total)
	}
	if got, ok := part.ListGet([]byte("c05")); !ok || got[0] != 5 {
		t.Fatalf("cell: %v %v", got, ok)
	}
	if part.NumCells() > 2 {
		t.Fatalf("window too big: %d cells shipped", part.NumCells())
	}
}

func TestTxReadPartSeesOwnDeltas(t *testing.T) {
	_, c := startCluster(t, 1)
	ctx := context.Background()
	oid := c.NewOID(0)

	init := c.Begin()
	v := kv.NewSuper()
	v.ListAdd([]byte("a"), []byte("old"))
	init.Put(oid, v)
	if err := init.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	tx := c.Begin()
	defer tx.Abort()
	tx.ListAdd(oid, []byte("a"), []byte("mine"))
	tx.ListAdd(oid, []byte("b"), []byte("new"))
	part, total, err := tx.ReadPart(ctx, oid, []byte("a"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := part.ListGet([]byte("a")); string(got) != "mine" {
		t.Fatalf("own overwrite invisible: %q", got)
	}
	if got, ok := part.ListGet([]byte("b")); !ok || string(got) != "new" {
		t.Fatalf("own insert invisible: %q %v", got, ok)
	}
	if total < 2 {
		t.Fatalf("total %d does not reflect staged inserts", total)
	}
}

func TestTxReadPartAfterOwnPut(t *testing.T) {
	_, c := startCluster(t, 1)
	ctx := context.Background()
	oid := c.NewOID(0)

	tx := c.Begin()
	defer tx.Abort()
	v := kv.NewSuper()
	v.ListAdd([]byte("x"), []byte("1"))
	v.ListAdd([]byte("y"), []byte("2"))
	tx.Put(oid, v) // never committed: ReadPart must materialize locally
	part, total, err := tx.ReadPart(ctx, oid, []byte("y"), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 {
		t.Fatalf("total = %d", total)
	}
	if got, ok := part.ListGet([]byte("y")); !ok || string(got) != "2" {
		t.Fatalf("windowed own put: %q %v", got, ok)
	}
}

func TestTxReadPartMissing(t *testing.T) {
	_, c := startCluster(t, 1)
	tx := c.Begin()
	defer tx.Abort()
	if _, _, err := tx.ReadPart(context.Background(), c.NewOID(0), nil, nil, 0); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("missing object: %v", err)
	}
}

// TestTxReadPartMemo: a repeat of a read inside one transaction —
// windowed or whole — is answered without a server round trip, the remembered
// answer is the BASE — staged operations are overlaid on every call, so
// Get → Put → Get reads its own write — neither a reused key buffer nor a
// different window is mistaken for the remembered request, and the
// memo lasts exactly as long as the statement (Tx.EndStatement).
func TestTxReadPartMemo(t *testing.T) {
	cl, c := startCluster(t, 1)
	ctx := context.Background()
	oid := c.NewOID(0)

	init := c.Begin()
	v := kv.NewSuper()
	for i := 0; i < 10; i++ {
		v.ListAdd([]byte(fmt.Sprintf("c%02d", i)), []byte("old"))
	}
	init.Put(oid, v)
	if err := init.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	tx := c.Begin()
	defer tx.Abort()
	serverReads := func() uint64 { return cl.Stats().Reads }
	get := func(key string) (string, bool) {
		t.Helper()
		k := []byte(key)
		part, _, err := tx.ReadPart(ctx, oid, k, append(k, 0), 2)
		if err != nil {
			t.Fatal(err)
		}
		val, ok := part.ListGet(k)
		return string(val), ok
	}

	before := serverReads()
	if val, ok := get("c05"); !ok || val != "old" {
		t.Fatalf("first read: %q %v", val, ok)
	}
	if val, ok := get("c05"); !ok || val != "old" {
		t.Fatalf("repeated read: %q %v", val, ok)
	}
	if n := serverReads() - before; n != 1 {
		t.Fatalf("two identical reads cost %d server reads, want 1", n)
	}

	// Another transaction's commit must stay invisible (it would be
	// anyway, at this snapshot), and our own staged write must not.
	other := c.Begin()
	other.ListAdd(oid, []byte("c05"), []byte("theirs"))
	if err := other.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	tx.ListAdd(oid, []byte("c05"), []byte("mine"))
	if val, ok := get("c05"); !ok || val != "mine" {
		t.Fatalf("read after own write: %q %v", val, ok)
	}
	tx.ListDelRange(oid, []byte("c05"), []byte("c05\x00"))
	if val, ok := get("c05"); ok {
		t.Fatalf("read after own delete: %q", val)
	}
	if n := serverReads() - before; n != 1 {
		t.Fatalf("overlaid re-reads cost %d server reads in total, want 1", n)
	}

	// Same key bytes in a reused buffer, different contents: a new request.
	buf := []byte("c01")
	if _, _, err := tx.ReadPart(ctx, oid, buf, []byte("c01\x00"), 2); err != nil {
		t.Fatal(err)
	}
	copy(buf, "c02")
	part, _, err := tx.ReadPart(ctx, oid, buf, []byte("c02\x00"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := part.ListGet([]byte("c02")); !ok {
		t.Fatal("a reused key buffer was answered from the memo of its old contents")
	}
	// Same from, wider window: a new request too.
	part, _, err = tx.ReadPart(ctx, oid, []byte("c01"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if part.NumCells() != 8 { // c01..c09 minus the deleted c05
		t.Fatalf("unbounded window after a point read of the same key: %d cells", part.NumCells())
	}
	// A whole-object read is the zero window and is remembered like any
	// other: Read twice, one server read.
	before = serverReads()
	for i := 0; i < 2; i++ {
		if whole, err := tx.Read(ctx, oid); err != nil || whole.NumCells() != 9 {
			t.Fatalf("whole-object read %d: %+v (%v)", i, whole, err)
		}
	}
	if n := serverReads() - before; n != 1 {
		t.Fatalf("two whole-object reads cost %d server reads, want 1", n)
	}
	// Within a statement nothing is read twice, however many distinct
	// requests it makes; once the statement ends, a repeat is one server
	// read again.
	before = serverReads()
	for round := 0; round < 2; round++ {
		for i := 0; i < 10; i++ {
			get(fmt.Sprintf("c%02d", i))
		}
	}
	if n := serverReads() - before; n != 7 { // c01, c02 and c05 were read above
		t.Fatalf("ten point reads, twice, cost %d server reads, want 7", n)
	}
	tx.EndStatement()
	before = serverReads()
	if val, ok := get("c00"); !ok || val != "old" {
		t.Fatalf("read in the next statement: %q %v", val, ok)
	}
	if val, ok := get("c05"); ok { // the staged delete outlives the statement
		t.Fatalf("read in the next statement after own delete: %q", val)
	}
	if n := serverReads() - before; n != 2 {
		t.Fatalf("two repeats after EndStatement cost %d server reads, want 2", n)
	}
}
