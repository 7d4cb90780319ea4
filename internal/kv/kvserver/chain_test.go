package kvserver

// Tests for stored versions as a base plus the ops since it
// (kv.Layered): every retained version reads as the Op.Apply fold over
// the same ops, a reader's result never changes under later commits,
// trims and rebases, and replicas whose rebase points differ hold the
// same state.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"yesquel/internal/clock"
	"yesquel/internal/kv"
)

// opSource deals out a fuzz input's ops a byte at a time (zeros once it
// is spent), and everything else — base cells, values, read windows —
// from a generator seeded by the input.
type opSource struct {
	stream []byte
	r      *rand.Rand
}

func (b *opSource) next() byte {
	if len(b.stream) == 0 {
		return 0
	}
	c := b.stream[0]
	b.stream = b.stream[1:]
	return c
}

func (b *opSource) key() []byte { return []byte(fmt.Sprintf("k%03d", b.next()%160)) }

// bound is a key, or nil (unbounded) one time in eight.
func (b *opSource) bound() []byte {
	if b.next()%8 == 0 {
		return nil
	}
	return b.key()
}

func (b *opSource) bytes() []byte {
	v := make([]byte, b.r.Intn(8))
	b.r.Read(v)
	return v
}

// leaf is a supervalue of n cells over the key space the ops write.
func (b *opSource) leaf(n int) *kv.Value {
	v := kv.NewSuper()
	for i := 0; i < n; i++ {
		v.ListAdd([]byte(fmt.Sprintf("k%03d", b.r.Intn(160))), b.bytes())
	}
	return v
}

// window draws a read window over the key space.
func (b *opSource) window() (from, to []byte, max uint32) {
	key := func() []byte {
		if b.r.Intn(6) == 0 {
			return nil
		}
		return []byte(fmt.Sprintf("k%03d", b.r.Intn(164)))
	}
	from, to = key(), key()
	if b.r.Intn(4) > 0 {
		max = uint32(1 + b.r.Intn(40))
	}
	return from, to, max
}

// op draws one of the six write kinds, or a compare one time in four.
func (b *opSource) op(oid kv.OID) *kv.Op {
	switch k := b.next() % 32; {
	case k < 14:
		return &kv.Op{Kind: kv.OpListAdd, OID: oid, Cell: kv.Cell{Key: b.key(), Value: b.bytes()}}
	case k < 17:
		key := b.key()
		return &kv.Op{Kind: kv.OpListDelRange, OID: oid, From: key, To: append(key, 0)}
	case k == 17:
		return &kv.Op{Kind: kv.OpListDelRange, OID: oid, From: b.bound(), To: b.bound()}
	case k < 20:
		return &kv.Op{Kind: kv.OpAttrSet, OID: oid, Attr: b.next() % kv.NumAttrs, Num: uint64(b.next() % 3)}
	case k == 20:
		return &kv.Op{Kind: kv.OpSetBounds, OID: oid, Low: b.bound(), High: b.bound()}
	case k == 21:
		return &kv.Op{Kind: kv.OpPut, OID: oid, Value: b.leaf(b.r.Intn(129))}
	case k == 22:
		return &kv.Op{Kind: kv.OpPut, OID: oid, Value: kv.NewPlain(b.bytes())}
	case k == 23:
		return &kv.Op{Kind: kv.OpDelete, OID: oid}
	case k < 26:
		return &kv.Op{Kind: kv.OpCmpPresent, OID: oid, From: b.key()}
	case k < 28:
		return &kv.Op{Kind: kv.OpCmpAbsent, OID: oid, From: b.bound(), To: b.bound()}
	case k == 28:
		return &kv.Op{Kind: kv.OpCmpFences, OID: oid, From: b.bound(), To: b.bound()}
	case k == 29:
		return &kv.Op{Kind: kv.OpCmpAttr, OID: oid, Attr: b.next() % kv.NumAttrs, Num: uint64(b.next() % 3)}
	default:
		return &kv.Op{Kind: kv.OpCmpMaxCells, OID: oid, Num: uint64(b.next())}
	}
}

// storedVersion returns oid's stored version at ts.
func storedVersion(s *Store, oid kv.OID, ts clock.Timestamp) (kv.Layered, bool) {
	sh := s.shardFor(oid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if obj := sh.objs[oid]; obj != nil {
		for _, v := range obj.versions {
			if v.ts == ts {
				return v.val, true
			}
		}
	}
	return kv.Layered{}, false
}

// readSame reports whether a windowed read of a version returned what
// the window of its reference value holds.
func readSame(got *kv.Value, total int, want *kv.Value, from, to []byte, max uint32) bool {
	if want.Kind != kv.KindSuper {
		return got.Equal(want)
	}
	part := *want
	part.Cells = want.WindowCells(from, to, max)
	return total == len(want.Cells) && bytes.Equal(encodeValue(got), encodeValue(&part))
}

// FuzzVersionChain: over a random base of 0–128 cells and a random
// stream of all six write kinds with compares mixed in, on a store that
// trims at a random chain length, every retained version reads as the
// fold of kv.Op.Apply over the same ops: a random window of it, its
// total cell count, its encoded size and its encoding. Every result
// returned earlier still encodes as it did, and a version re-read after
// later commits, trims and rebases (the store rebases on commit, and on
// a read that overlays many cells) reads the same.
func FuzzVersionChain(f *testing.F) {
	f.Add(uint8(64), uint8(6), bytes.Repeat([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, 8))
	f.Add(uint8(128), uint8(30), bytes.Repeat([]byte{0, 7, 3, 1, 9, 2, 5, 4, 40, 200, 17, 44, 19}, 30))
	f.Add(uint8(0), uint8(2), bytes.Repeat([]byte{6, 1, 0, 5, 11, 3, 12, 7, 15, 21, 64, 0, 1}, 30))
	f.Add(uint8(20), uint8(17), bytes.Repeat([]byte{4, 97, 13, 255, 8, 2, 10, 1, 9, 33, 14, 30, 31}, 30))
	f.Fuzz(checkVersionChain)
}

func checkVersionChain(t *testing.T, nBase, maxVersions uint8, stream []byte) {
	{
		src := &opSource{stream: stream, r: rand.New(rand.NewSource(int64(len(stream))<<16 | int64(nBase)<<8 | int64(maxVersions)))}
		s := NewStore(nil, Config{MaxVersions: 2 + int(maxVersions%30)})
		oid := kv.MakeOID(0, 1)

		type committed struct {
			ts   clock.Timestamp
			want *kv.Value
		}
		type held struct {
			ts       clock.Timestamp
			from, to []byte
			max      uint32
			v        *kv.Value
			total    int
			enc      []byte
		}
		var chain []committed
		var kept []held
		want := (*kv.Value)(nil)
		commit := func(ops []*kv.Op) {
			next, wantErr := want, error(nil)
			for _, op := range ops {
				if next, wantErr = op.Apply(next); wantErr != nil {
					break
				}
			}
			ts, err := s.FastCommit(newTxID(), s.Clock().Now(), ops)
			if (err == nil) != (wantErr == nil) || errors.Is(err, kv.ErrCompare) != errors.Is(wantErr, kv.ErrCompare) {
				t.Fatalf("commit %d of %v: err %v, fold err %v", len(chain), ops, err, wantErr)
			}
			if err == nil && len(withoutCompares(ops)) > 0 {
				want = next
				chain = append(chain, committed{ts, want})
			}
		}
		commit([]*kv.Op{{Kind: kv.OpPut, OID: oid, Value: src.leaf(int(nBase % 129))}})

		for step := 0; len(src.stream) > 0 && step < 200; step++ {
			ops := make([]*kv.Op, 1+src.next()%3)
			for i := range ops {
				ops[i] = src.op(oid)
			}
			commit(ops)

			retained := s.VersionCount(oid)
			for _, c := range chain[len(chain)-retained:] {
				l, ok := storedVersion(s, oid, c.ts)
				if !ok {
					t.Fatalf("step %d: version at %v not retained", step, c.ts)
				}
				if l.EncodedSize() != c.want.EncodedSize() || !bytes.Equal(encodeValue(l.Value()), encodeValue(c.want)) {
					t.Fatalf("step %d: version at %v: size %d, encodes as %x;\nwant size %d, %x", step, c.ts,
						l.EncodedSize(), encodeValue(l.Value()), c.want.EncodedSize(), encodeValue(c.want))
				}
				from, to, max := src.window()
				v, total, _, err := s.ReadPart(oid, c.ts, from, to, max)
				if c.want == nil {
					if !errors.Is(err, kv.ErrNotFound) {
						t.Fatalf("step %d: tombstone at %v read as %v, %v", step, c.ts, v, err)
					}
					continue
				}
				if err != nil || !readSame(v, total, c.want, from, to, max) {
					t.Fatalf("step %d: window [%q, %q) max %d at %v: %v (total %d, err %v)", step, from, to, max, c.ts, v, total, err)
				}
				if h := (held{c.ts, from, to, max, v, total, encodeValue(v)}); len(kept) < 64 {
					kept = append(kept, h)
				} else {
					kept[src.r.Intn(len(kept))] = h
				}
			}
			for i, h := range kept {
				if !bytes.Equal(encodeValue(h.v), h.enc) {
					t.Fatalf("step %d: a result returned earlier (%d) changed", step, i)
				}
				v, total, _, err := s.ReadPart(oid, h.ts, h.from, h.to, h.max)
				if errors.Is(err, kv.ErrConflict) {
					continue // trimmed since
				}
				if err != nil || total != h.total || !bytes.Equal(encodeValue(v), h.enc) {
					t.Fatalf("step %d: re-read %d at %v differs: %v (err %v)", step, i, h.ts, v, err)
				}
			}
		}
	}
}

// TestHotObjectReadersNeverSeeChange: readers hold windows of one hot
// leaf, at the newest snapshot and at older ones, while a writer lands
// ten rebases' worth of one-cell updates on it, trimmed at a short
// chain. Every held result must still encode as it did when it was
// returned, and re-reading it at its snapshot must give the same bytes.
// Run under -race this is also the check that no commit, rebase or trim
// writes memory a reader can reach — in particular that no slot of the
// ops' shared array is written twice.
func TestHotObjectReadersNeverSeeChange(t *testing.T) {
	s := NewStore(nil, Config{MaxVersions: 6})
	oid := putLeaves(t, s, 1)[0]

	const commits = 10 * 16 // ten times kv's rebase interval
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < commits; i++ {
			if _, err := s.FastCommit(newTxID(), s.Clock().Now(), updateCell(oid, i*7, i)); err != nil {
				t.Errorf("commit %d: %v", i, err)
				return
			}
		}
	}()

	type held struct {
		snap  clock.Timestamp
		from  []byte
		max   uint32
		v     *kv.Value
		total int
		enc   []byte
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var kept []held
			check := func() bool {
				for i, h := range kept {
					if !bytes.Equal(encodeValue(h.v), h.enc) {
						t.Errorf("reader %d: result %d changed after it was returned", r, i)
						return false
					}
					v, total, _, err := s.ReadPart(oid, h.snap, h.from, nil, h.max)
					if errors.Is(err, kv.ErrConflict) {
						continue // trimmed, or blocked on the writer's prepare
					}
					if err != nil || total != h.total || !bytes.Equal(encodeValue(v), h.enc) {
						t.Errorf("reader %d: result %d re-read at its snapshot differs (err %v)", r, i, err)
						return false
					}
				}
				return true
			}
			for n := 0; ; n++ {
				select {
				case <-done:
					check()
					return
				default:
				}
				h := held{snap: s.Clock().Now(), from: leafCellKey(n % 64), max: uint32(n % 40)}
				var err error
				h.v, h.total, _, err = s.ReadPart(oid, h.snap, h.from, nil, h.max)
				if errors.Is(err, kv.ErrConflict) {
					continue
				}
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				h.enc = encodeValue(h.v)
				if len(kept) < 128 {
					kept = append(kept, h)
				} else {
					kept[n%len(kept)] = h
				}
				if n%32 == 0 && !check() {
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestReplicasAgreeAcrossRebasePoints: a backup that installs a
// snapshot in the middle of a leaf's chain holds that version as a base
// with no ops, where the primary holds it as ops on an older base, so
// the two rebase at different commits from then on. Their digests must
// agree anyway, through 100 more commits on the leaf, and through 100
// after the backup takes over as the writer, as a promoted backup does,
// with the old primary following it.
func TestReplicasAgreeAcrossRebasePoints(t *testing.T) {
	primary, backup := NewStore(nil, Config{}), NewStore(nil, Config{})
	oid := putLeaves(t, primary, 1)[0]
	for i := 0; i < 7; i++ {
		if _, err := primary.FastCommit(newTxID(), primary.Clock().Now(), updateCell(oid, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	primary.repMu.Lock()
	sn := primary.captureSnapshotLocked()
	primary.repMu.Unlock()
	var enc []byte
	if err := encodeSnapshot(sn, 1<<16, func(p []byte) error { enc = append(enc, p...); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := backup.ApplyMirroredBatch(&kv.MirrorBatchReq{From: sn.Seq, Epoch: sn.Epoch, Snap: enc, Last: true}); err != nil {
		t.Fatal(err)
	}
	pending := func(s *Store) int {
		sh := s.shardFor(oid)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		l, _ := newest(sh.objs[oid])
		return l.Pending()
	}
	if p, b := pending(primary), pending(backup); p != 7 || b != 0 {
		t.Fatalf("ops pending on the newest version: primary %d, backup %d; want 7 and 0", p, b)
	}

	agree := func(phase string, i int) {
		t.Helper()
		if p, b := primary.StateDigest(), backup.StateDigest(); p != b {
			t.Fatalf("%s, commit %d: StateDigest %x on the primary, %x on the backup", phase, i, p, b)
		}
		if p, b := primary.SlotDigest(0, 1), backup.SlotDigest(0, 1); p != b {
			t.Fatalf("%s, commit %d: SlotDigest %x on the primary, %x on the backup", phase, i, p, b)
		}
	}
	// ops is commit i's write: mostly one-cell updates, with inserts and
	// one-cell deletes, so cell counts and sizes move too.
	ops := func(i int) []*kv.Op {
		switch i % 5 {
		case 3:
			return []*kv.Op{{Kind: kv.OpListAdd, OID: oid, Cell: kv.Cell{Key: []byte(fmt.Sprintf("user9%07d", i)), Value: []byte{byte(i)}}}}
		case 4:
			key := leafCellKey(i % 64)
			return []*kv.Op{{Kind: kv.OpListDelRange, OID: oid, From: key, To: append(key, 0)}}
		}
		return updateCell(oid, i, i)
	}
	for i := 0; i < 100; i++ {
		if _, err := primary.FastCommit(newTxID(), primary.Clock().Now(), ops(i)); err != nil {
			t.Fatal(err)
		}
		catchUp(t, backup, primary)
		agree("backup following", i)
	}
	for i := 100; i < 200; i++ {
		if _, err := backup.FastCommit(newTxID(), backup.Clock().Now(), ops(i)); err != nil {
			t.Fatal(err)
		}
		catchUp(t, primary, backup)
		agree("after failover", i)
	}
}
