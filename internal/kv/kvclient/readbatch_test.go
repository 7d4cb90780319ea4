package kvclient_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
)

// seedBatchObjects commits one plain object and one supervalue per
// server slot and returns their OIDs (plain first).
func seedBatchObjects(t *testing.T, c *kvclient.Client, servers int) (plain, super []kv.OID) {
	t.Helper()
	ctx := context.Background()
	tx := c.Begin()
	for s := 0; s < servers; s++ {
		p := c.NewOID(uint16(s))
		tx.Put(p, kv.NewPlain([]byte(fmt.Sprintf("plain-%d", s))))
		plain = append(plain, p)
		sv := kv.NewSuper()
		for i := 0; i < 10; i++ {
			sv.ListAdd([]byte(fmt.Sprintf("k%02d", i)), []byte{byte(s), byte(i)})
		}
		o := c.NewOID(uint16(s))
		tx.Put(o, sv)
		super = append(super, o)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	return plain, super
}

// checkBatchAgainstSingles asserts that a ReadBatch answers exactly
// what per-object Read/ReadPart at the same snapshot answer.
func checkBatchAgainstSingles(t *testing.T, tx *kvclient.Tx, items []kv.ReadBatchItem, results []kv.ReadBatchResult) {
	t.Helper()
	ctx := context.Background()
	if len(results) != len(items) {
		t.Fatalf("got %d results for %d items", len(results), len(items))
	}
	for i, item := range items {
		res := results[i]
		if item.Part {
			want, total, err := tx.ReadPart(ctx, item.OID, item.From, item.To, item.Max)
			if err != nil {
				if !res.Found {
					continue
				}
				t.Fatalf("item %d: batch found, single errored: %v", i, err)
			}
			if !res.Found || !res.Value.Equal(want) || int(res.Total) != total {
				t.Fatalf("item %d: batch %+v/%d != single %+v/%d", i, res.Value, res.Total, want, total)
			}
			continue
		}
		want, err := tx.Read(ctx, item.OID)
		if err != nil {
			if !res.Found {
				continue
			}
			t.Fatalf("item %d: batch found, single errored: %v", i, err)
		}
		if !res.Found || !res.Value.Equal(want) {
			t.Fatalf("item %d: batch %+v != single %+v", i, res.Value, want)
		}
	}
}

func TestTxReadBatchAcrossServers(t *testing.T) {
	const servers = 3
	_, c := startCluster(t, servers)
	plain, super := seedBatchObjects(t, c, servers)

	tx := c.Begin()
	defer tx.Abort()
	var items []kv.ReadBatchItem
	for s := 0; s < servers; s++ {
		items = append(items,
			kv.ReadBatchItem{OID: plain[s]},
			kv.ReadBatchItem{OID: super[s], Part: true, From: []byte("k03"), To: []byte("k07"), Max: 2},
			kv.ReadBatchItem{OID: c.NewOID(uint16(s))}, // absent
		)
	}
	results, err := tx.ReadBatch(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < servers; s++ {
		if !results[3*s].Found || results[3*s+2].Found {
			t.Fatalf("slot %d: found flags %v %v", s, results[3*s].Found, results[3*s+2].Found)
		}
	}
	checkBatchAgainstSingles(t, tx, items, results)
}

func TestTxReadBatchStagedOverlay(t *testing.T) {
	_, c := startCluster(t, 2)
	ctx := context.Background()
	plain, super := seedBatchObjects(t, c, 2)

	tx := c.Begin()
	defer tx.Abort()
	// Staged writes of every flavour: a delta on a committed
	// supervalue, a full overwrite of a committed plain value, and a
	// write to an OID that does not exist yet.
	tx.ListAdd(super[0], []byte("k99"), []byte("mine"))
	tx.Put(plain[1], kv.NewPlain([]byte("overwritten")))
	fresh := c.NewOID(0)
	tx.Put(fresh, kv.NewPlain([]byte("unborn")))

	items := []kv.ReadBatchItem{
		{OID: super[0], Part: true, From: []byte("k90"), To: nil},
		{OID: plain[1]},
		{OID: fresh},
		{OID: plain[0]}, // clean item sharing the batch
	}
	results, err := tx.ReadBatch(ctx, items)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := results[0].Value.ListGet([]byte("k99")); !ok || !bytes.Equal(v, []byte("mine")) {
		t.Fatalf("staged delta invisible: %v %v", v, ok)
	}
	if string(results[1].Value.Data) != "overwritten" || string(results[2].Value.Data) != "unborn" {
		t.Fatalf("staged overwrites invisible: %+v %+v", results[1].Value, results[2].Value)
	}
	checkBatchAgainstSingles(t, tx, items, results)
}

// TestPrefetchFillsTheReadSet: a Prefetch is one read round however many
// items and servers it spans, every base it fetched then answers its
// item locally — all of them, a plan of twenty as well as one of three,
// after further plans as well as before — under whatever the transaction
// stages afterwards, until the statement ends; an item already held, or
// overwritten by a staged Put, is not fetched, and when nothing is left
// to fetch there is no round. ReadBatch's bases enter the set the same
// way.
func TestPrefetchFillsTheReadSet(t *testing.T) {
	cl, c := startCluster(t, 2)
	ctx := context.Background()
	_, super := seedBatchObjects(t, c, 2)

	point := func(oid kv.OID, i int) kv.ReadBatchItem {
		k := []byte(fmt.Sprintf("k%02d", i))
		return kv.ReadBatchItem{OID: oid, Part: true, From: k, To: append(k[:len(k):len(k)], 0), Max: 2}
	}
	var plan []kv.ReadBatchItem
	for i := 0; i < 10; i++ {
		plan = append(plan, point(super[0], i), point(super[1], i))
	}
	cost := func(f func()) (reads, rounds uint64) {
		reads, rounds = cl.Stats().Reads, c.ReadRounds()
		f()
		return cl.Stats().Reads - reads, c.ReadRounds() - rounds
	}

	tx := c.Begin()
	defer tx.Abort()
	if reads, rounds := cost(func() {
		if _, _, err := tx.ReadPart(ctx, super[0], plan[6].From, plan[6].To, plan[6].Max); err != nil {
			t.Fatal(err)
		}
	}); reads != 1 || rounds != 1 {
		t.Fatalf("a single read: %d reads in %d rounds", reads, rounds)
	}
	if reads, rounds := cost(func() {
		if err := tx.Prefetch(ctx, plan); err != nil {
			t.Fatal(err)
		}
	}); reads != 19 || rounds != 1 {
		t.Fatalf("prefetch of 20 items, one of them held already: %d reads in %d rounds, want 19 in 1", reads, rounds)
	}
	// A second plan in the same statement adds to the set; the reads below
	// find the first plan's items still there.
	if reads, rounds := cost(func() {
		if err := tx.Prefetch(ctx, []kv.ReadBatchItem{{OID: super[0]}, {OID: super[1]}}); err != nil {
			t.Fatal(err)
		}
	}); reads != 2 || rounds != 1 {
		t.Fatalf("a second prefetch of 2 other items: %d reads in %d rounds, want 2 in 1", reads, rounds)
	}
	tx.ListAdd(super[1], []byte("k03"), []byte("mine"))
	if reads, rounds := cost(func() {
		for i, it := range plan {
			v, _, err := tx.ReadPart(ctx, it.OID, it.From, it.To, it.Max)
			if err != nil {
				t.Fatal(err)
			}
			want := []byte{byte(i % 2), byte(i / 2)}
			if it.OID == super[1] && i/2 == 3 {
				want = []byte("mine")
			}
			if got, ok := v.ListGet(it.From); !ok || !bytes.Equal(got, want) {
				t.Fatalf("item %d after the prefetch: %q, want %q", i, got, want)
			}
		}
		if err := tx.Prefetch(ctx, plan); err != nil {
			t.Fatal(err)
		}
	}); reads != 0 || rounds != 0 {
		t.Fatalf("reads of the first prefetch's items after a second one, and prefetching them again: %d reads in %d rounds, want none", reads, rounds)
	}
	// The statement ends: the next one reads from the servers again.
	tx.EndStatement()
	if reads, rounds := cost(func() {
		if err := tx.Prefetch(ctx, plan); err != nil {
			t.Fatal(err)
		}
	}); reads != 20 || rounds != 1 {
		t.Fatalf("the plan again after EndStatement: %d reads in %d rounds, want 20 in 1", reads, rounds)
	}

	// A batch remembers what it fetched; a staged Put makes the servers'
	// copy irrelevant.
	tx2 := c.Begin()
	defer tx2.Abort()
	tx2.Put(super[1], kv.NewSuper())
	if reads, rounds := cost(func() {
		if _, err := tx2.ReadBatch(ctx, plan[:6]); err != nil {
			t.Fatal(err)
		}
		if _, err := tx2.ReadBatch(ctx, plan[:6]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := tx2.ReadPart(ctx, super[0], plan[4].From, plan[4].To, plan[4].Max); err != nil {
			t.Fatal(err)
		}
	}); reads != 3 || rounds != 1 {
		t.Fatalf("a batch of 6 (3 of them overwritten) twice, then one of its items: %d reads in %d rounds, want 3 in 1", reads, rounds)
	}
}
