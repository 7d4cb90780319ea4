package dbt_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"yesquel/internal/cluster"
	"yesquel/internal/dbt"
	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
	"yesquel/internal/kv/kvserver"
)

func startTree(t *testing.T, servers int, cfg dbt.Config) (*cluster.Cluster, *kvclient.Client, *dbt.Tree) {
	t.Helper()
	cl, err := cluster.Start(servers, kvserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	tree, err := dbt.Create(context.Background(), c, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tree.Close)
	return cl, c, tree
}

// putAuto inserts in an auto-commit transaction, retrying conflicts
// (splits race with writers by design).
func putAuto(t *testing.T, c *kvclient.Client, tree *dbt.Tree, key, value string) {
	t.Helper()
	ctx := context.Background()
	for i := 0; ; i++ {
		tx := c.Begin()
		if err := tree.Put(ctx, tx, []byte(key), []byte(value)); err != nil {
			tx.Abort()
			t.Fatalf("Put %q: %v", key, err)
		}
		err := tx.Commit(ctx)
		if err == nil {
			return
		}
		if !errors.Is(err, kv.ErrConflict) || i > 20 {
			t.Fatalf("Put %q commit: %v", key, err)
		}
	}
}

func getAuto(t *testing.T, c *kvclient.Client, tree *dbt.Tree, key string) (string, bool) {
	t.Helper()
	ctx := context.Background()
	tx := c.Begin()
	defer tx.Abort()
	v, err := tree.Get(ctx, tx, []byte(key))
	if errors.Is(err, dbt.ErrKeyNotFound) {
		return "", false
	}
	if err != nil {
		t.Fatalf("Get %q: %v", key, err)
	}
	return string(v), true
}

func TestPutGetSmall(t *testing.T) {
	_, c, tree := startTree(t, 1, dbt.Config{})
	putAuto(t, c, tree, "hello", "world")
	putAuto(t, c, tree, "foo", "bar")
	if v, ok := getAuto(t, c, tree, "hello"); !ok || v != "world" {
		t.Fatalf("get hello: %q %v", v, ok)
	}
	if v, ok := getAuto(t, c, tree, "foo"); !ok || v != "bar" {
		t.Fatalf("get foo: %q %v", v, ok)
	}
	if _, ok := getAuto(t, c, tree, "missing"); ok {
		t.Fatal("missing key found")
	}
	// Overwrite.
	putAuto(t, c, tree, "hello", "mundo")
	if v, _ := getAuto(t, c, tree, "hello"); v != "mundo" {
		t.Fatalf("overwrite: %q", v)
	}
}

func TestDelete(t *testing.T) {
	_, c, tree := startTree(t, 1, dbt.Config{})
	ctx := context.Background()
	putAuto(t, c, tree, "a", "1")
	putAuto(t, c, tree, "b", "2")

	tx := c.Begin()
	if err := tree.Delete(ctx, tx, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok := getAuto(t, c, tree, "a"); ok {
		t.Fatal("deleted key still present")
	}
	if _, ok := getAuto(t, c, tree, "b"); !ok {
		t.Fatal("unrelated key vanished")
	}
	// Deleting an absent key reports ErrKeyNotFound.
	tx = c.Begin()
	defer tx.Abort()
	if err := tree.Delete(ctx, tx, []byte("a")); !errors.Is(err, dbt.ErrKeyNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

// fillSequential inserts n keys k000000..k(n-1), committing each; each
// commit splits what it grew, so which leaves exist is the same on every
// run.
func fillSequential(t *testing.T, c *kvclient.Client, tree *dbt.Tree, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		putAuto(t, c, tree, fmt.Sprintf("k%06d", i), fmt.Sprintf("v%d", i))
	}
}

func TestSplitsSequentialInsert(t *testing.T) {
	_, c, tree := startTree(t, 1, dbt.Config{MaxCells: 8})
	const n = 200
	fillSequential(t, c, tree, n)
	if tree.Stats().SplitsDone == 0 {
		t.Fatal("no splits happened with MaxCells=8 and 200 keys")
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%06d", i)
		if v, ok := getAuto(t, c, tree, key); !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %s after splits: %q %v", key, v, ok)
		}
	}
}

// TestWriterWaitsForItsSplit: the writer that grows a leaf past its limit
// has split it by the time Commit returns. Single-row writers with nothing
// between them therefore leave no leaf over the limit, lose no split to
// their own next commit, and never fail; a transaction that stages on a
// leaf due a split commits whole, and its split halves the leaf until no
// piece is over the limit.
func TestWriterWaitsForItsSplit(t *testing.T) {
	_, c, tree := startTree(t, 2, dbt.Config{MaxCells: 8})
	ctx := context.Background()
	const n = 200
	for i := 0; i < n; i++ {
		tx := c.Begin()
		if err := tree.Put(ctx, tx, []byte(fmt.Sprintf("k%06d", i)), []byte("v")); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		if err := tx.Commit(ctx); err != nil {
			t.Fatalf("commit %d: %v (a lone writer that waits for its splits conflicts with nothing)", i, err)
		}
	}
	tx := c.Begin()
	res, err := tree.Check(ctx, tx)
	tx.Abort()
	if err != nil {
		t.Fatal(err)
	}
	// Sequential keys only ever grow the last leaf: all the others are
	// halves of a split.
	if st := tree.Stats(); res.Cells != n || res.Leaves < n/5 || st.SplitConflict != 0 {
		t.Fatalf("%d cells in %d leaves after %d splits, %d of them lost: the writer ran ahead of its split",
			res.Cells, res.Leaves, st.SplitsDone, st.SplitConflict)
	}

	// Many rows onto one leaf in one transaction: every Put succeeds, the
	// commit is whole, and the split it asks for leaves no leaf over the
	// limit.
	splits := tree.Stats().SplitsDone
	tx = c.Begin()
	for i := 0; i < 40; i++ {
		if err := tree.Put(ctx, tx, []byte(fmt.Sprintf("k%06dx%02d", n, i)), []byte("v")); err != nil {
			t.Fatalf("Put %d of the batch: %v", i, err)
		}
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if got := tree.Stats().SplitsDone; got == splits {
		t.Error("a batch that grew its leaf to five times the limit returned from Commit with no split made")
	}
	tx = c.Begin()
	defer tx.Abort()
	if res, err := tree.Check(ctx, tx); err != nil || res.Cells != n+40 || res.MaxLeafCells > 8 {
		t.Fatalf("Check after the batch: %+v, %v; want %d cells, no leaf over 8", res, err, n+40)
	}
}

// TestNoNodeOverLimitWhenCommitReturns: a lone writer's Commit returns
// with no node over MaxCells — not the leaf it grew, and not the inner
// nodes that leaf's split, and their splits, overflowed.
func TestNoNodeOverLimitWhenCommitReturns(t *testing.T) {
	_, c, tree := startTree(t, 2, dbt.Config{MaxCells: 4})
	ctx := context.Background()
	for i := 0; i < 300; i++ {
		tx := c.Begin()
		if err := tree.Put(ctx, tx, []byte(fmt.Sprintf("k%06d", i)), []byte("v")); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		if err := tx.Commit(ctx); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		tx = c.Begin()
		res, err := tree.Check(ctx, tx)
		tx.Abort()
		if err != nil {
			t.Fatalf("Check after commit %d: %v", i, err)
		}
		if res.MaxLeafCells > 4 || res.MaxFanout > 4 {
			t.Fatalf("after commit %d: a leaf of %d cells, an inner node of %d children; MaxCells is 4",
				i, res.MaxLeafCells, res.MaxFanout)
		}
	}
}

func TestSplitsRandomInsertMultiServer(t *testing.T) {
	_, c, tree := startTree(t, 4, dbt.Config{MaxCells: 8})
	rng := rand.New(rand.NewSource(42))
	keys := make(map[string]string)
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("key-%08x", rng.Uint32())
		v := fmt.Sprintf("val-%d", i)
		keys[k] = v
		putAuto(t, c, tree, k, v)
	}
	for k, v := range keys {
		if got, ok := getAuto(t, c, tree, k); !ok || got != v {
			t.Fatalf("get %s: %q %v (want %q)", k, got, ok, v)
		}
	}
}

func TestScanOrderedAfterSplits(t *testing.T) {
	_, c, tree := startTree(t, 2, dbt.Config{MaxCells: 6})
	ctx := context.Background()
	const n = 150
	fillSequential(t, c, tree, n)

	tx := c.Begin()
	defer tx.Abort()
	cells, err := tree.Scan(ctx, tx, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != n {
		t.Fatalf("scan returned %d cells, want %d", len(cells), n)
	}
	for i := 1; i < len(cells); i++ {
		if bytes.Compare(cells[i-1].Key, cells[i].Key) >= 0 {
			t.Fatalf("scan out of order at %d: %q >= %q", i, cells[i-1].Key, cells[i].Key)
		}
	}
	if string(cells[0].Key) != "k000000" || string(cells[n-1].Key) != fmt.Sprintf("k%06d", n-1) {
		t.Fatalf("scan endpoints: %q .. %q", cells[0].Key, cells[n-1].Key)
	}
}

func TestScanFromMiddleAndLimit(t *testing.T) {
	_, c, tree := startTree(t, 1, dbt.Config{MaxCells: 6})
	ctx := context.Background()
	fillSequential(t, c, tree, 100)

	tx := c.Begin()
	defer tx.Abort()
	cells, err := tree.Scan(ctx, tx, []byte("k000050"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 10 {
		t.Fatalf("limit: got %d", len(cells))
	}
	if string(cells[0].Key) != "k000050" {
		t.Fatalf("start: %q", cells[0].Key)
	}
	// Start between keys.
	cells, err = tree.Scan(ctx, tx, []byte("k000050x"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(cells[0].Key) != "k000051" {
		t.Fatalf("between keys: %q", cells[0].Key)
	}
	// Start beyond the end.
	cells, err = tree.Scan(ctx, tx, []byte("zzz"), -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 0 {
		t.Fatalf("past end: %d cells", len(cells))
	}
}

func TestScanSeesOwnWrites(t *testing.T) {
	_, c, tree := startTree(t, 1, dbt.Config{})
	ctx := context.Background()
	putAuto(t, c, tree, "b", "committed")

	tx := c.Begin()
	defer tx.Abort()
	if err := tree.Put(ctx, tx, []byte("a"), []byte("own")); err != nil {
		t.Fatal(err)
	}
	cells, err := tree.Scan(ctx, tx, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 || string(cells[0].Key) != "a" || string(cells[1].Key) != "b" {
		t.Fatalf("own write not in scan: %v", cells)
	}
}

func TestSnapshotScanDuringSplit(t *testing.T) {
	// A scan at an old snapshot must see the pre-split tree even after
	// splits rearrange the nodes (MVCC protects structural changes).
	_, c, tree := startTree(t, 2, dbt.Config{MaxCells: 8})
	ctx := context.Background()
	fillSequential(t, c, tree, 20)

	// Freeze a snapshot, then grow the tree massively.
	snapTx := c.BeginAt(c.Clock().Now())
	fillSequential(t, c, tree, 200) // re-inserts 0..199, overwriting 0..19

	cells, err := tree.Scan(ctx, snapTx, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 20 {
		t.Fatalf("old snapshot scan: %d cells, want 20", len(cells))
	}
}

func TestCacheEffectiveness(t *testing.T) {
	_, c, tree := startTree(t, 1, dbt.Config{MaxCells: 8})
	fillSequential(t, c, tree, 200)

	// Warm: one lookup per key. Descents should mostly hit the cache
	// for inner nodes, reading only the leaf.
	before := tree.Stats()
	for i := 0; i < 200; i++ {
		getAuto(t, c, tree, fmt.Sprintf("k%06d", i))
	}
	after := tree.Stats()
	reads := after.NodeReads - before.NodeReads
	descents := after.Descents - before.Descents
	if descents != 200 {
		t.Fatalf("descents = %d", descents)
	}
	// Allow some slack for back-downs, but on a warm cache the read
	// amplification must be far below the tree height.
	if reads > 250 {
		t.Fatalf("warm-cache lookups did %d node reads for 200 descents", reads)
	}
	if after.CacheHits == before.CacheHits {
		t.Fatal("cache never hit")
	}
}

func TestNoCacheAblation(t *testing.T) {
	_, c, tree := startTree(t, 1, dbt.Config{MaxCells: 8, NoCache: true})
	fillSequential(t, c, tree, 100)
	before := tree.Stats()
	for i := 0; i < 50; i++ {
		getAuto(t, c, tree, fmt.Sprintf("k%06d", i))
	}
	after := tree.Stats()
	if after.CacheHits != before.CacheHits {
		t.Fatal("NoCache still hit the cache")
	}
	// Every descent reads every level: strictly more than one read per
	// lookup on a multi-level tree.
	reads := after.NodeReads - before.NodeReads
	if reads <= 50 {
		t.Fatalf("NoCache lookups did only %d reads for 50 descents on a split tree", reads)
	}
}

func TestNoDeltaAblation(t *testing.T) {
	_, c, tree := startTree(t, 1, dbt.Config{NoDelta: true})
	putAuto(t, c, tree, "k", "v")
	if v, ok := getAuto(t, c, tree, "k"); !ok || v != "v" {
		t.Fatalf("NoDelta put/get: %q %v", v, ok)
	}
	putAuto(t, c, tree, "k", "v2")
	if v, _ := getAuto(t, c, tree, "k"); v != "v2" {
		t.Fatalf("NoDelta overwrite: %q", v)
	}
	ctx := context.Background()
	tx := c.Begin()
	if err := tree.Delete(ctx, tx, []byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok := getAuto(t, c, tree, "k"); ok {
		t.Fatal("NoDelta delete failed")
	}
}

func TestStaleCacheAcrossClients(t *testing.T) {
	// Client A caches the tree, client B splits it; A's next operations
	// must back down and still find every key.
	cl, cA, tree := startTree(t, 2, dbt.Config{MaxCells: 8})
	fillSequential(t, cA, tree, 30)

	// Warm A's cache.
	for i := 0; i < 30; i++ {
		getAuto(t, cA, tree, fmt.Sprintf("k%06d", i))
	}

	// Client B grows the tree a lot, forcing many splits.
	cB, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cB.Close()
	treeB, err := dbt.Open(context.Background(), cB, 1, dbt.Config{MaxCells: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer treeB.Close()
	fillSequential(t, cB, treeB, 300)

	// A (stale cache) must still find everything via back-down.
	for i := 0; i < 300; i += 7 {
		key := fmt.Sprintf("k%06d", i)
		if v, ok := getAuto(t, cA, tree, key); !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("stale client get %s: %q %v", key, v, ok)
		}
	}
	if tree.Stats().BackDowns == 0 {
		t.Fatal("expected back-downs after foreign splits")
	}
}

// TestConcurrentWritersOnOneHandle: writers sharing a handle split what
// they grow, and share the attempt when two grow the same node.
func TestConcurrentWritersOnOneHandle(t *testing.T) {
	_, c, tree := startTree(t, 4, dbt.Config{MaxCells: 16})
	ctx := context.Background()
	const workers = 4
	const perWorker = 100
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("w%d-%06d", w, i)
				for attempt := 0; ; attempt++ {
					tx := c.Begin()
					err := tree.Put(ctx, tx, []byte(key), []byte("x"))
					if err == nil {
						err = tx.Commit(ctx)
					} else {
						tx.Abort()
					}
					if err == nil {
						break
					}
					if !errors.Is(err, kv.ErrConflict) || attempt > 50 {
						errCh <- fmt.Errorf("put %s: %w", key, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	// Everything must be present and ordered.
	tx := c.Begin()
	defer tx.Abort()
	cells, err := tree.Scan(ctx, tx, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != workers*perWorker {
		t.Fatalf("scan found %d keys, want %d", len(cells), workers*perWorker)
	}
	if !sort.SliceIsSorted(cells, func(i, j int) bool {
		return bytes.Compare(cells[i].Key, cells[j].Key) < 0
	}) {
		t.Fatal("scan out of order")
	}
}

func TestMultiTreeTransaction(t *testing.T) {
	// One transaction spanning two trees (as a SQL statement updating a
	// table and its index does) must be atomic.
	cl, c, tree1 := startTree(t, 2, dbt.Config{})
	_ = cl
	ctx := context.Background()
	tree2, err := dbt.Create(ctx, c, 2, dbt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tree2.Close()

	tx := c.Begin()
	if err := tree1.Put(ctx, tx, []byte("row"), []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := tree2.Put(ctx, tx, []byte("index"), []byte("row")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if v, ok := getAuto(t, c, tree1, "row"); !ok || v != "data" {
		t.Fatalf("tree1: %q %v", v, ok)
	}
	if v, ok := getAuto(t, c, tree2, "index"); !ok || v != "row" {
		t.Fatalf("tree2: %q %v", v, ok)
	}
}

func TestOpenMissingTree(t *testing.T) {
	cl, err := cluster.Start(1, kvserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := dbt.Open(context.Background(), c, 999, dbt.Config{}); !errors.Is(err, dbt.ErrTreeNotFound) {
		t.Fatalf("open missing tree: %v", err)
	}
}

func TestNodesDistributedAcrossServers(t *testing.T) {
	cl, c, tree := startTree(t, 4, dbt.Config{MaxCells: 8})
	fillSequential(t, c, tree, 400)
	// After many splits, every server should hold some objects.
	for i, srv := range cl.Servers {
		if srv.Store().NumObjects() == 0 {
			t.Fatalf("server %d holds no nodes; placement not distributing", i)
		}
	}
	_ = tree
}

func TestEmptyTreeScanAndGet(t *testing.T) {
	_, c, tree := startTree(t, 1, dbt.Config{})
	ctx := context.Background()
	tx := c.Begin()
	defer tx.Abort()
	cells, err := tree.Scan(ctx, tx, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 0 {
		t.Fatalf("empty tree scan: %d", len(cells))
	}
	if _, err := tree.Get(ctx, tx, []byte("k")); !errors.Is(err, dbt.ErrKeyNotFound) {
		t.Fatalf("empty tree get: %v", err)
	}
}

func TestBinaryKeysAndValues(t *testing.T) {
	_, c, tree := startTree(t, 1, dbt.Config{})
	ctx := context.Background()
	keys := [][]byte{
		{},
		{0},
		{0, 0},
		{0xff},
		{0xff, 0xff, 0xff},
		[]byte("mixed\x00binary\xff"),
	}
	tx := c.Begin()
	for i, k := range keys {
		if err := tree.Put(ctx, tx, k, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	tx = c.Begin()
	defer tx.Abort()
	for i, k := range keys {
		v, err := tree.Get(ctx, tx, k)
		if err != nil || len(v) != 1 || v[0] != byte(i) {
			t.Fatalf("binary key %x: %v %v", k, v, err)
		}
	}
	cells, err := tree.Scan(ctx, tx, nil, -1)
	if err != nil || len(cells) != len(keys) {
		t.Fatalf("scan: %d %v", len(cells), err)
	}
}

func TestQuickRandomOpsMatchModel(t *testing.T) {
	// Property test: random Put/Delete/Get/Scan against a map+sort
	// model, with small nodes to exercise splits heavily.
	_, c, tree := startTree(t, 2, dbt.Config{MaxCells: 4})
	ctx := context.Background()
	model := make(map[string]string)
	rng := rand.New(rand.NewSource(7))

	for step := 0; step < 400; step++ {
		k := fmt.Sprintf("k%03d", rng.Intn(120))
		switch rng.Intn(4) {
		case 0, 1: // put
			v := fmt.Sprintf("v%d", step)
			putAuto(t, c, tree, k, v)
			model[k] = v
		case 2: // delete
			tx := c.Begin()
			err := tree.Delete(ctx, tx, []byte(k))
			if errors.Is(err, dbt.ErrKeyNotFound) {
				tx.Abort()
				if _, ok := model[k]; ok {
					t.Fatalf("step %d: model has %s but tree does not", step, k)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(ctx); err != nil {
				if errors.Is(err, kv.ErrConflict) {
					continue // deletion lost a race with a split; key stays
				}
				t.Fatal(err)
			}
			delete(model, k)
		case 3: // get
			want, wantOK := model[k]
			got, ok := getAuto(t, c, tree, k)
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("step %d: get %s = %q,%v want %q,%v", step, k, got, ok, want, wantOK)
			}
		}
	}

	// Final scan must equal the sorted model.
	var wantKeys []string
	for k := range model {
		wantKeys = append(wantKeys, k)
	}
	sort.Strings(wantKeys)
	tx := c.Begin()
	defer tx.Abort()
	cells, err := tree.Scan(ctx, tx, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(wantKeys) {
		t.Fatalf("final scan %d keys, model %d", len(cells), len(wantKeys))
	}
	for i, k := range wantKeys {
		if string(cells[i].Key) != k || string(cells[i].Value) != model[k] {
			t.Fatalf("final scan[%d] = %q=%q, want %q=%q", i, cells[i].Key, cells[i].Value, k, model[k])
		}
	}
}
