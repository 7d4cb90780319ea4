package dbt_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"yesquel/internal/cluster"
	"yesquel/internal/dbt"
	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
	"yesquel/internal/kv/kvserver"
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

// TestReadaheadScanMatchesSync is the core determinism check: the same
// snapshot scanned through a readahead iterator and through a
// synchronous (NoReadahead) iterator must produce byte-identical
// cells.
func TestReadaheadScanMatchesSync(t *testing.T) {
	_, c, loader := startTree(t, 3, dbt.Config{MaxCells: 8, SyncSplit: true})
	fillSequential(t, c, loader, 120)
	ctx := context.Background()

	ra, err := dbt.Open(ctx, c, 1, dbt.Config{MaxCells: 8, ReadaheadLeaves: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()

	tx1 := c.Begin()
	defer tx1.Abort()
	tx2 := c.BeginAt(tx1.Snapshot())
	defer tx2.Abort()
	got := scanAllAt(t, ra, tx1)
	want := scanAllAt(t, loader, tx2)
	if len(want) != 120 {
		t.Fatalf("sync scan saw %d cells, want 120", len(want))
	}
	requireSameCells(t, got, want)
}

// TestReadaheadScanDuringSplits starts a readahead scan, lets another
// handle commit inserts that split leaves mid-scan, and checks the
// scan still returns exactly its snapshot — identical to a synchronous
// scan at the same snapshot taken after the splits.
func TestReadaheadScanDuringSplits(t *testing.T) {
	_, c, loader := startTree(t, 3, dbt.Config{MaxCells: 8, SyncSplit: true})
	fillSequential(t, c, loader, 100)
	ctx := context.Background()

	ra, err := dbt.Open(ctx, c, 1, dbt.Config{MaxCells: 8, ReadaheadLeaves: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()

	tx := c.Begin()
	defer tx.Abort()
	it := ra.NewIterator(ctx, tx, dbt.Range{})
	defer it.Close()
	var got []kv.Cell
	for i := 0; i < 5 && it.Valid(); i++ {
		got = append(got, kv.Cell{Key: it.Key(), Value: it.Value()})
		it.Next()
	}
	// Splits land while the iterator (and its prefetcher) are mid-tree.
	for i := 100; i < 160; i++ {
		putAuto(t, c, loader, fmt.Sprintf("k%06d", i), fmt.Sprintf("v%d", i))
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

// TestReadaheadScanSeesStagedWrites stages a write mid-scan: the
// prefetched leaves carry no overlay, so the iterator must shut the
// pipeline down and keep serving the transaction's own writes.
func TestReadaheadScanSeesStagedWrites(t *testing.T) {
	_, c, loader := startTree(t, 2, dbt.Config{MaxCells: 8, SyncSplit: true})
	fillSequential(t, c, loader, 100)
	ctx := context.Background()

	ra, err := dbt.Open(ctx, c, 1, dbt.Config{MaxCells: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()

	tx := c.Begin()
	defer tx.Abort()
	it := ra.NewIterator(ctx, tx, dbt.Range{})
	defer it.Close()
	var got []kv.Cell
	for i := 0; i < 3 && it.Valid(); i++ {
		got = append(got, kv.Cell{Key: it.Key(), Value: it.Value()})
		it.Next()
	}
	staged := "k000050a" // well ahead of the current position
	if err := ra.Put(ctx, tx, []byte(staged), []byte("staged")); err != nil {
		t.Fatalf("staged Put: %v", err)
	}
	for ; it.Valid(); it.Next() {
		got = append(got, kv.Cell{Key: it.Key(), Value: it.Value()})
	}
	if err := it.Err(); err != nil {
		t.Fatalf("iterator: %v", err)
	}
	if len(got) != 101 {
		t.Fatalf("scan saw %d cells, want 101", len(got))
	}
	seen := false
	for i, cell := range got {
		if i > 0 && bytes.Compare(got[i-1].Key, cell.Key) >= 0 {
			t.Fatalf("scan out of order at %d: %q then %q", i, got[i-1].Key, cell.Key)
		}
		if string(cell.Key) == staged {
			seen = true
			if string(cell.Value) != "staged" {
				t.Fatalf("staged cell value %q", cell.Value)
			}
		}
	}
	if !seen {
		t.Fatalf("staged key %q missing from scan", staged)
	}
}

// TestReadaheadFollowerReads checks readahead-on and readahead-off
// scans stay byte-identical when reads route to followers: the
// prefetcher's ReadView must obey the same watermark-gated routing as
// the transaction it serves.
func TestReadaheadFollowerReads(t *testing.T) {
	cl, err := cluster.StartReplicated(1, 3, kvserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ctx := context.Background()
	loader, err := dbt.Create(ctx, c, 1, dbt.Config{MaxCells: 8, SyncSplit: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(loader.Close)
	fillSequential(t, c, loader, 80)

	ra, err := dbt.Open(ctx, c, 1, dbt.Config{MaxCells: 8, ReadaheadLeaves: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()

	c.SetFollowerReads(true)
	last := []byte(fmt.Sprintf("k%06d", 79))
	// Wait for the durability frontier to cover the fill: primary reads
	// teach the client the frontier, and once a frontier-snapshot read
	// sees the last key, every filled write is below the watermark.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := getAuto(t, c, loader, string(last)); !ok {
			t.Fatal("seed key missing")
		}
		if snap := c.FollowerSnapshot(); uint64(snap) > 0 {
			tx := c.BeginAt(snap)
			_, err := loader.Get(ctx, tx, last)
			tx.Abort()
			if err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("durability frontier never covered the fill")
		}
		time.Sleep(10 * time.Millisecond)
	}

	snap := c.FollowerSnapshot()
	tx1 := c.BeginAt(snap)
	defer tx1.Abort()
	tx2 := c.BeginAt(snap)
	defer tx2.Abort()
	got := scanAllAt(t, ra, tx1)
	want := scanAllAt(t, loader, tx2)
	if len(want) != 80 {
		t.Fatalf("follower scan saw %d cells, want 80", len(want))
	}
	requireSameCells(t, got, want)
}

// collect drains an iterator.
func collect(t *testing.T, it *dbt.Iterator) []kv.Cell {
	t.Helper()
	defer it.Close()
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
// with readahead on and off.
func TestBoundedIteratorMatchesUnbounded(t *testing.T) {
	ctx := context.Background()
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%06d", i)) }
	for _, readahead := range []bool{true, false} {
		t.Run(fmt.Sprintf("readahead=%v", readahead), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 5; trial++ {
				maxCells := 4 + rng.Intn(13)
				_, c, loader := startTree(t, 1+rng.Intn(3), dbt.Config{MaxCells: maxCells, SyncSplit: true})
				n := 60 + rng.Intn(140)
				for i := 0; i < n; i += 2 { // even keys; odd ones are left for staged inserts
					putAuto(t, c, loader, string(key(i)), fmt.Sprintf("v%d", i))
					if err := loader.MaintainNow(ctx); err != nil && !errors.Is(err, kv.ErrConflict) {
						t.Fatalf("MaintainNow: %v", err)
					}
				}
				bounded, err := dbt.Open(ctx, c, 1, dbt.Config{MaxCells: maxCells, NoReadahead: !readahead})
				if err != nil {
					t.Fatal(err)
				}
				ref, err := dbt.Open(ctx, c, 1, dbt.Config{MaxCells: maxCells, NoReadahead: true})
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
						if err == nil {
							err = loader.MaintainNow(ctx)
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
	cl, c, tree := startTree(t, 1, dbt.Config{MaxCells: 8, SyncSplit: true})
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

// TestGetBatch covers the batched multi-key read path: warm-cache
// batched lookups, cold-cache fallback, staleness repair after
// another handle splits leaves, and staged-write overlay.
func TestGetBatch(t *testing.T) {
	_, c, loader := startTree(t, 3, dbt.Config{MaxCells: 8, SyncSplit: true})
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
	_, c, tree := startTree(t, 1, dbt.Config{MaxCells: 4, CacheMaxNodes: 2, SyncSplit: true})
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
