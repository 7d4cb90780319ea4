package dbt_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"yesquel/internal/dbt"
	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
)

func scanAllAt(t *testing.T, tree *dbt.Tree, tx *kvclient.Tx) []kv.Cell {
	t.Helper()
	cells, err := tree.Scan(context.Background(), tx, nil, -1)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return cells
}

func requireSameCells(t *testing.T, got, want []kv.Cell) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("scan lengths differ: got %d, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("cell %d differs: got %q=%q, want %q=%q",
				i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
}

// openWarm opens one more handle to tree 1 and fills its inner-node
// cache with a scan, so the scans that follow are planned. A handle fresh
// from dbt.Open is cold: it routes nothing, plans nothing and reads leaf
// by leaf until its descents have cached the inner nodes, as does, for
// good, a handle with an ablation switch on (the loaders here, with
// NoPartial: they read whole leaves one by one): those are the reference
// a planned scan is held to.
func openWarm(t *testing.T, c *kvclient.Client, cfg dbt.Config) *dbt.Tree {
	t.Helper()
	tree, err := dbt.Open(context.Background(), c, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tree.Close)
	tx := c.Begin()
	scanAllAt(t, tree, tx)
	tx.Abort()
	return tree
}

// TestPlannedScanMatchesLeafByLeaf is the core determinism check: the
// same snapshot scanned in planned rounds, by a cold handle and leaf by
// leaf must produce byte-identical cells — and the planned scan must
// have made fewer rounds than there are leaves, or nothing was planned.
func TestPlannedScanMatchesLeafByLeaf(t *testing.T) {
	_, c, loader := startTree(t, 3, dbt.Config{MaxCells: 8, NoPartial: true})
	fillSequential(t, c, loader, 120)
	ctx := context.Background()
	warm := openWarm(t, c, dbt.Config{MaxCells: 8})
	cold, err := dbt.Open(ctx, c, 1, dbt.Config{MaxCells: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()

	tx := c.Begin()
	defer tx.Abort()
	rounds := c.ReadRounds()
	want := scanAllAt(t, loader, tx)
	serial := c.ReadRounds() - rounds
	if len(want) != 120 {
		t.Fatalf("leaf-by-leaf scan saw %d cells, want 120", len(want))
	}
	for _, tree := range []*dbt.Tree{warm, cold} {
		at := c.BeginAt(tx.Snapshot())
		rounds = c.ReadRounds()
		requireSameCells(t, scanAllAt(t, tree, at), want)
		at.Abort()
		if planned := c.ReadRounds() - rounds; tree == warm && planned*2 > serial {
			t.Errorf("planned scan made %d read rounds, the leaf-by-leaf one %d", planned, serial)
		}
	}
	// A Limit sizes the first round: the same cells, in one round.
	for _, limit := range []int{1, 5, 13, 40} {
		at := c.BeginAt(tx.Snapshot())
		rounds = c.ReadRounds()
		got, err := warm.Scan(ctx, at, []byte("k000017"), limit)
		at.Abort()
		if err != nil {
			t.Fatal(err)
		}
		requireSameCells(t, got, want[17:17+limit])
		if n := c.ReadRounds() - rounds; limit <= 13 && n != 1 {
			t.Errorf("Scan of %d cells made %d read rounds, want 1", limit, n)
		}
	}
}

// TestPlannedScanDuringSplits starts a planned scan, lets another
// handle commit inserts that split leaves mid-scan — the leaves of the
// round in hand among them — and checks the scan still returns exactly
// its snapshot: what a leaf-by-leaf scan at the same snapshot returns
// after the splits.
func TestPlannedScanDuringSplits(t *testing.T) {
	_, c, loader := startTree(t, 3, dbt.Config{MaxCells: 8, NoPartial: true})
	fillSequential(t, c, loader, 100)
	ctx := context.Background()
	warm := openWarm(t, c, dbt.Config{MaxCells: 8})

	tx := c.Begin()
	defer tx.Abort()
	it := warm.NewIterator(ctx, tx, dbt.Range{})
	var got []kv.Cell
	for i := 0; i < 6 && it.Valid(); i++ {
		got = append(got, kv.Cell{Key: it.Key(), Value: it.Value()})
		it.Next()
	}
	// Splits land while the iterator is mid-tree.
	for i := 100; i < 160; i++ {
		putAuto(t, c, loader, fmt.Sprintf("k%06d", i), fmt.Sprintf("v%d", i))
		putAuto(t, c, loader, fmt.Sprintf("k%06da", i-95), "late")
	}
	for ; it.Valid(); it.Next() {
		got = append(got, kv.Cell{Key: it.Key(), Value: it.Value()})
	}
	if err := it.Err(); err != nil {
		t.Fatalf("iterator: %v", err)
	}

	check := c.BeginAt(tx.Snapshot())
	defer check.Abort()
	want := scanAllAt(t, loader, check)
	if len(want) != 100 {
		t.Fatalf("snapshot scan saw %d cells, want 100", len(want))
	}
	requireSameCells(t, got, want)
}

// TestPlannedScanSeesStagedWrites stages a write mid-scan, into a leaf
// the round in hand has already fetched: fetched leaves carry no overlay,
// so the iterator must drop them and keep serving the transaction's own
// writes.
func TestPlannedScanSeesStagedWrites(t *testing.T) {
	_, c, loader := startTree(t, 2, dbt.Config{MaxCells: 8, NoPartial: true})
	fillSequential(t, c, loader, 100)
	ctx := context.Background()
	warm := openWarm(t, c, dbt.Config{MaxCells: 8})

	tx := c.Begin()
	defer tx.Abort()
	// Leaves hold four cells. The first round is the first leaf, the
	// second the two after it: six cells in, the third leaf is in hand.
	it := warm.NewIterator(ctx, tx, dbt.Range{})
	var got []kv.Cell
	for i := 0; i < 6 && it.Valid(); i++ {
		got = append(got, kv.Cell{Key: it.Key(), Value: it.Value()})
		it.Next()
	}
	for _, staged := range []string{"k000009a", "k000050a"} {
		if err := warm.Put(ctx, tx, []byte(staged), []byte("staged")); err != nil {
			t.Fatalf("staged Put: %v", err)
		}
	}
	if err := warm.Delete(ctx, tx, []byte("k000010")); err != nil {
		t.Fatalf("staged Delete: %v", err)
	}
	for ; it.Valid(); it.Next() {
		got = append(got, kv.Cell{Key: it.Key(), Value: it.Value()})
	}
	if err := it.Err(); err != nil {
		t.Fatalf("iterator: %v", err)
	}
	// The loader scans leaf by leaf through the same transaction.
	want := scanAllAt(t, loader, tx)
	if len(want) != 101 {
		t.Fatalf("leaf-by-leaf scan saw %d cells, want 101", len(want))
	}
	requireSameCells(t, got, want)
}

// TestStaleScanPlanCostsReadsNeverRows: another handle splits a scan's
// start leaf and the leaf after it between a handle's cache fill and its
// scan. The round the stale cache plans then names a start leaf that no
// longer holds the start key, and later a successor that no longer
// follows its predecessor: each time the iterator drops the run, the
// ordinary descent backs down, and the scan returns what a fresh
// handle's does, for the wasted rounds and the back-downs more.
func TestStaleScanPlanCostsReadsNeverRows(t *testing.T) {
	cl, c, loader := planTree(t)
	ctx := context.Background()
	stale, fresh := openWarm(t, c, dbt.Config{MaxCells: 8}), openWarm(t, c, dbt.Config{MaxCells: 8})

	// Grow and split the leaves that hold k000031 and k000033: the fillers
	// from k000031a and from k000033c up move to leaves the stale handle
	// has not heard of.
	splits := loader.Stats().SplitsDone
	for _, at := range []int{31, 33} {
		for i := 0; i < 8; i++ {
			putAuto(t, c, loader, fmt.Sprintf("k%06d%c", at, 'a'+i), "filler")
		}
	}
	if loader.Stats().SplitsDone < splits+2 {
		t.Fatal("the fillers did not split two leaves")
	}
	tx := c.Begin()
	scanAllAt(t, fresh, tx) // fresh has heard of them
	tx.Abort()

	scan := func(tree *dbt.Tree) (cells []kv.Cell, reads, rounds, backDowns uint64) {
		t.Helper()
		reads, rounds, backDowns = cl.Stats().Reads, c.ReadRounds(), tree.Stats().BackDowns
		tx := c.Begin()
		defer tx.Abort()
		cells, err := tree.Scan(ctx, tx, []byte("k000031c"), 12)
		if err != nil {
			t.Fatal(err)
		}
		return cells, cl.Stats().Reads - reads, c.ReadRounds() - rounds, tree.Stats().BackDowns - backDowns
	}
	want, fReads, fRounds, fBack := scan(fresh)
	got, sReads, sRounds, sBack := scan(stale)
	requireSameCells(t, got, want)
	if len(want) != 12 || string(want[0].Key) != "k000031c" || string(want[11].Key) != "k000033d" {
		t.Fatalf("scan returned %d cells from %q to %q", len(want), want[0].Key, want[len(want)-1].Key)
	}
	t.Logf("12 cells from k000031c: fresh %d reads in %d rounds, stale %d reads in %d rounds and %d back-downs",
		fReads, fRounds, sReads, sRounds, sBack)
	// One back-down per split the scan ran into; the first repairs the
	// second's route too when the two leaves share a parent.
	if fBack != 0 || sBack < 1 || sBack > 2 {
		t.Errorf("back-downs: %d fresh, %d stale, want 0 and 1 or 2 (the route was not stale?)", fBack, sBack)
	}
	if sRounds <= fRounds || sReads <= fReads {
		t.Errorf("stale scan cost %d reads in %d rounds, fresh %d in %d: want the stale one dearer", sReads, sRounds, fReads, fRounds)
	}
	// The back-down repaired the route: the same scan again costs what
	// the fresh handle's did.
	if _, reads, rounds, back := scan(stale); reads != fReads || rounds != fRounds || back != 0 {
		t.Errorf("scan after the repair: %d reads in %d rounds, %d back-downs, want %d, %d, 0", reads, rounds, back, fReads, fRounds)
	}
	check := c.Begin()
	defer check.Abort()
	if res, err := stale.Check(ctx, check); err != nil || res.Cells != 64+16 {
		t.Fatalf("Check through the stale handle: %+v, %v", res, err)
	}
}

// TestInnerSplitLeavesRoutableCache: a handle that splits an inner node
// (or grows an inner root) caches both halves with the router, so the
// read plan for the next key — sequential keys land under the newest
// sibling — still names a leaf. Without that the statement after an inner
// split plans nothing and reads row by row.
func TestInnerSplitLeavesRoutableCache(t *testing.T) {
	_, c, tree := startTree(t, 2, dbt.Config{MaxCells: 4})
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%06d", i)
		if plan := tree.PlanPoint(nil, []byte(key)); i > 4 && len(plan) != 1 {
			t.Fatalf("after %d keys the cache routes %q to %d leaves, want 1", i, key, len(plan))
		}
		putAuto(t, c, tree, key, "v") // its commit waits for the leaf's split
	}
	tx := c.Begin()
	defer tx.Abort()
	if res, err := tree.Check(ctx, tx); err != nil || res.Height < 3 {
		t.Fatalf("Check: %+v, %v; want inner nodes to have split", res, err)
	}
}

// collect drains an iterator.
func collect(t *testing.T, it *dbt.Iterator) []kv.Cell {
	t.Helper()
	var out []kv.Cell
	for ; it.Valid(); it.Next() {
		out = append(out, kv.Cell{Key: it.Key(), Value: it.Value()})
	}
	if err := it.Err(); err != nil {
		t.Fatalf("iterator: %v", err)
	}
	return out
}

// TestBoundedIteratorMatchesUnbounded is the property the bounded
// access paths rest on: for any Range, the iterator yields exactly what
// an unbounded iterator at the same snapshot yields, filtered to
// [Lo, Hi) — including when the consumer iterates past the advisory
// Limit — over random trees, while another handle keeps splitting
// leaves, with and without staged writes in the reading transaction,
// in planned rounds and leaf by leaf.
func TestBoundedIteratorMatchesUnbounded(t *testing.T) {
	ctx := context.Background()
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%06d", i)) }
	for _, planned := range []bool{true, false} {
		t.Run(fmt.Sprintf("planned=%v", planned), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 5; trial++ {
				maxCells := 4 + rng.Intn(13)
				_, c, loader := startTree(t, 1+rng.Intn(3), dbt.Config{MaxCells: maxCells})
				n := 60 + rng.Intn(140)
				for i := 0; i < n; i += 2 { // even keys; odd ones are left for staged inserts
					putAuto(t, c, loader, string(key(i)), fmt.Sprintf("v%d", i))
				}
				// A handle that reads whole leaves is ablated: it plans nothing.
				bounded, err := dbt.Open(ctx, c, 1, dbt.Config{MaxCells: maxCells, NoPartial: !planned})
				if err != nil {
					t.Fatal(err)
				}
				ref, err := dbt.Open(ctx, c, 1, dbt.Config{MaxCells: maxCells, NoPartial: true})
				if err != nil {
					t.Fatal(err)
				}

				// Splits keep running under the readers: commits after the
				// readers' snapshots, invisible to them, restructuring the
				// leaves they walk.
				stop := make(chan struct{})
				var wg sync.WaitGroup
				stopWriter := sync.OnceFunc(func() {
					close(stop)
					wg.Wait()
				})
				t.Cleanup(stopWriter) // before the cluster goes away, also when the test fails
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 1; ; i += 2 {
						select {
						case <-stop:
							return
						default:
						}
						tx := c.Begin()
						err := loader.Put(ctx, tx, key(i%n), []byte("late"))
						if err == nil {
							err = tx.Commit(ctx)
						} else {
							tx.Abort()
						}
						if err != nil && !errors.Is(err, kv.ErrConflict) {
							t.Errorf("background writer: %v", err)
							return
						}
					}
				}()

				for _, staged := range []bool{false, true} {
					tx := c.Begin()
					if staged {
						for j := 0; j < 10; j++ {
							if err := bounded.Put(ctx, tx, key(2*rng.Intn(n/2)+1), []byte("staged")); err != nil {
								t.Fatal(err)
							}
							err := bounded.Delete(ctx, tx, key(2*rng.Intn(n/2)))
							if err != nil && !errors.Is(err, dbt.ErrKeyNotFound) {
								t.Fatal(err)
							}
						}
					}
					all := collect(t, ref.NewIterator(ctx, tx, dbt.Range{}))
					for q := 0; q < 40; q++ {
						var r dbt.Range
						if rng.Intn(5) > 0 {
							r.Lo = key(rng.Intn(n + 10))
						}
						if rng.Intn(3) > 0 {
							r.Hi = key(rng.Intn(n + 10)) // sometimes below Lo: an empty range
						}
						if rng.Intn(3) > 0 {
							r.Limit = 1 + rng.Intn(3*maxCells)
						}
						var want []kv.Cell
						for _, cell := range all {
							if bytes.Compare(cell.Key, r.Lo) >= 0 && (r.Hi == nil || bytes.Compare(cell.Key, r.Hi) < 0) {
								want = append(want, cell)
							}
						}
						got := collect(t, bounded.NewIterator(ctx, tx, r))
						if len(got) != len(want) {
							t.Fatalf("trial %d staged=%v range [%q, %q) limit %d: %d cells, want %d",
								trial, staged, r.Lo, r.Hi, r.Limit, len(got), len(want))
						}
						requireSameCells(t, got, want)
					}
					tx.Abort()
				}
				stopWriter()
				bounded.Close()
				ref.Close()
			}
		})
	}
}

// TestEmptyRangeReadsNothing: a range that cannot hold a key costs no
// node read at all.
func TestEmptyRangeReadsNothing(t *testing.T) {
	cl, c, tree := startTree(t, 1, dbt.Config{MaxCells: 8})
	fillSequential(t, c, tree, 40)
	ctx := context.Background()
	tx := c.Begin()
	defer tx.Abort()
	before := cl.Stats().Reads
	for _, r := range []dbt.Range{
		{Lo: []byte{}, Hi: []byte{}},
		{Lo: []byte("k000020"), Hi: []byte("k000020")},
		{Lo: []byte("k000030"), Hi: []byte("k000010")},
	} {
		if got := collect(t, tree.NewIterator(ctx, tx, r)); len(got) != 0 {
			t.Fatalf("range [%q, %q) yielded %d cells", r.Lo, r.Hi, len(got))
		}
	}
	if n := cl.Stats().Reads - before; n != 0 {
		t.Fatalf("empty ranges cost %d server reads", n)
	}
}

// TestLimitOutlastsWholeLeaf: a scan whose Limit asks for more cells than
// are left reaches the end, also where leaves are read whole — a tree
// whose root is still a leaf, an ablated handle — and the window that
// comes back holds more than the cap. (It used to re-read such a leaf
// forever: a UNIQUE probe, a scan of one cell, of a small table hung.)
func TestLimitOutlastsWholeLeaf(t *testing.T) {
	ctx := context.Background()
	_, c, tree := startTree(t, 1, dbt.Config{NoPartial: true, MaxCells: 8})
	scan := func(r dbt.Range, want int) {
		t.Helper()
		tx := c.Begin()
		defer tx.Abort()
		if got := collect(t, tree.NewIterator(ctx, tx, r)); len(got) != want {
			t.Errorf("range [%q, %q) limit %d: %d cells, want %d", r.Lo, r.Hi, r.Limit, len(got), want)
		}
	}
	fillSequential(t, c, tree, 8) // one leaf, the root
	scan(dbt.Range{Lo: []byte("k000006"), Limit: 5}, 2)
	scan(dbt.Range{Lo: []byte("k000009"), Limit: 1}, 0)
	scan(dbt.Range{Lo: []byte("k000003a"), Hi: []byte("k000004"), Limit: 1}, 0)
	fillSequential(t, c, tree, 40)
	scan(dbt.Range{Lo: []byte("k000039a"), Limit: 1}, 0)
	scan(dbt.Range{Lo: []byte("k000017a"), Hi: []byte("k000018"), Limit: 1}, 0)
}

// TestGetBatch covers the batched multi-key read path: warm-cache
// batched lookups, cold-cache fallback, staleness repair after
// another handle splits leaves, and staged-write overlay.
func TestGetBatch(t *testing.T) {
	_, c, loader := startTree(t, 3, dbt.Config{MaxCells: 8})
	fillSequential(t, c, loader, 120)
	ctx := context.Background()

	warm, err := dbt.Open(ctx, c, 1, dbt.Config{MaxCells: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()

	mixed := [][]byte{
		[]byte("k000003"), []byte("zzz-absent"), []byte("k000077"),
		[]byte("k000110"), []byte("a-absent"), []byte("k000042"),
	}
	check := func(tree *dbt.Tree, label string) {
		tx := c.Begin()
		defer tx.Abort()
		got, err := tree.GetBatch(ctx, tx, mixed)
		if err != nil {
			t.Fatalf("%s GetBatch: %v", label, err)
		}
		for i, key := range mixed {
			want, ok := getAuto(t, c, loader, string(key))
			if !ok {
				if got[i] != nil {
					t.Fatalf("%s key %q: got %q, want absent", label, key, got[i])
				}
				continue
			}
			if string(got[i]) != want {
				t.Fatalf("%s key %q: got %q, want %q", label, key, got[i], want)
			}
		}
	}

	// Cold cache: every key falls back to a synchronous Get.
	check(warm, "cold")
	// Warm the cache so leaves are predictable, then batch for real.
	{
		tx := c.Begin()
		scanAllAt(t, warm, tx)
		tx.Abort()
	}
	check(warm, "warm")

	// Staleness: splits committed by the loader invalidate warm's
	// cached routing; the fence check must catch it and fall back.
	for i := 120; i < 200; i++ {
		putAuto(t, c, loader, fmt.Sprintf("k%06d", i), fmt.Sprintf("v%d", i))
	}
	mixed = append(mixed, []byte("k000185"))
	check(warm, "stale")

	// Staged writes: GetBatch runs through the transaction's overlay.
	tx := c.Begin()
	defer tx.Abort()
	if err := warm.Put(ctx, tx, []byte("k000077"), []byte("mine")); err != nil {
		t.Fatal(err)
	}
	if err := warm.Put(ctx, tx, []byte("brand-new"), []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	got, err := warm.GetBatch(ctx, tx, [][]byte{[]byte("k000077"), []byte("brand-new"), []byte("k000003")})
	if err != nil {
		t.Fatal(err)
	}
	if string(got[0]) != "mine" || string(got[1]) != "fresh" || string(got[2]) != "v3" {
		t.Fatalf("staged GetBatch: %q %q %q", got[0], got[1], got[2])
	}
}

// TestCacheEviction bounds the inner-node cache and checks eviction
// keeps it at the cap while lookups stay correct.
func TestCacheEviction(t *testing.T) {
	dbt.SetCacheMaxNodes(t, 2)
	_, c, tree := startTree(t, 1, dbt.Config{MaxCells: 4})
	fillSequential(t, c, tree, 80)
	for i := 0; i < 80; i += 7 {
		key := fmt.Sprintf("k%06d", i)
		if v, ok := getAuto(t, c, tree, key); !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get %q under eviction: %q %v", key, v, ok)
		}
	}
	if n := tree.CacheSize(); n > 2 {
		t.Fatalf("cache holds %d nodes, cap is 2", n)
	}
	if ev := tree.Stats().Evictions; ev == 0 {
		t.Fatal("no evictions recorded despite tiny cap")
	}
}
