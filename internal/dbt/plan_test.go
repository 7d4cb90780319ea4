package dbt_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"yesquel/internal/cluster"
	"yesquel/internal/dbt"
	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
)

// planTree loads 64 keys, one per commit, into a tree of small leaves
// (so it has two inner levels) and returns the loading handle with the
// cluster and client.
func planTree(t *testing.T) (*cluster.Cluster, *kvclient.Client, *dbt.Tree) {
	t.Helper()
	cl, c, loader := startTree(t, 2, dbt.Config{MaxCells: 8})
	fillSequential(t, c, loader, 64)
	tx := c.Begin()
	defer tx.Abort()
	if res, err := loader.Check(context.Background(), tx); err != nil || res.Height < 2 {
		t.Fatalf("Check: %+v, %v; want a tree with two inner levels", res, err)
	}
	return cl, c, loader
}

// openReader opens one more handle to tree 1. Its MaxCells is out of
// reach, so its own writes never find a leaf oversized.
func openReader(t *testing.T, c *kvclient.Client) *dbt.Tree {
	t.Helper()
	tree, err := dbt.Open(context.Background(), c, 1, dbt.Config{MaxCells: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tree.Close)
	return tree
}

// insertCost inserts key through tree the way a write statement does —
// probe, then put — in a transaction of its own, with the leaf read
// planned and prefetched first when planned is set, and reports what it
// cost: reads the servers saw, read rounds the client made, back-downs.
func insertCost(t *testing.T, cl *cluster.Cluster, c *kvclient.Client, tree *dbt.Tree, key string, planned bool) (reads, rounds, backDowns uint64) {
	t.Helper()
	ctx := context.Background()
	reads, rounds, backDowns = cl.Stats().Reads, c.ReadRounds(), tree.Stats().BackDowns
	tx := c.Begin()
	if planned {
		if err := tx.Prefetch(ctx, tree.PlanPoint(nil, []byte(key))); err != nil {
			t.Fatalf("plan for %q: %v", key, err)
		}
	}
	if _, err := tree.Get(ctx, tx, []byte(key)); !errors.Is(err, dbt.ErrKeyNotFound) {
		t.Fatalf("probe of %q: %v, want not found", key, err)
	}
	if err := tree.Put(ctx, tx, []byte(key), []byte("v-"+key)); err != nil {
		t.Fatalf("Put %q: %v", key, err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatalf("commit of %q: %v", key, err)
	}
	return cl.Stats().Reads - reads, c.ReadRounds() - rounds, tree.Stats().BackDowns - backDowns
}

// TestStalePlanCostsReadsNeverRows: another handle splits the target
// leaf between a handle's cache fill and its planned write. The plan
// then names the old leaf, and the write's own descent finds the fence
// wrong, backs down once and lands the row where it belongs — for what
// the same write costs the same stale handle without a plan. A planned
// GetBatch through a stale route likewise returns what is there.
func TestStalePlanCostsReadsNeverRows(t *testing.T) {
	cl, c, loader := planTree(t)
	ctx := context.Background()
	planned, unplanned := openReader(t, c), openReader(t, c)
	for _, tree := range []*dbt.Tree{planned, unplanned} {
		tx := c.Begin()
		scanAllAt(t, tree, tx) // fills the handle's inner-node cache
		tx.Abort()
	}

	// Grow and split the leaf that holds k000031: everything from
	// k000031a up moves to a leaf the two handles have not heard of.
	splits := loader.Stats().SplitsDone
	for i := 0; i < 8; i++ {
		putAuto(t, c, loader, fmt.Sprintf("k000031%c", 'a'+i), "filler")
	}
	if loader.Stats().SplitsDone == splits {
		t.Fatal("the fillers split nothing")
	}

	pReads, pRounds, pBack := insertCost(t, cl, c, planned, "k000031x", true)
	uReads, _, uBack := insertCost(t, cl, c, unplanned, "k000031y", false)
	if pBack != 1 || uBack != 1 {
		t.Fatalf("back-downs: %d planned, %d unplanned, want 1 each (the route was not stale?)", pBack, uBack)
	}
	if pReads != uReads {
		t.Errorf("a planned insert through a stale route cost %d server reads, an unplanned one %d", pReads, uReads)
	}
	t.Logf("stale route: %d server reads in %d rounds planned, %d unplanned", pReads, pRounds, uReads)
	// The back-down repaired the route: the next planned insert is one read.
	if reads, rounds, back := insertCost(t, cl, c, planned, "k000031z", true); reads != 1 || rounds != 1 || back != 0 {
		t.Errorf("planned insert after the repair: %d reads in %d rounds, %d back-downs, want 1, 1, 0", reads, rounds, back)
	}

	tx := c.Begin()
	defer tx.Abort()
	fresh := openReader(t, c)
	if res, err := fresh.Check(ctx, tx); err != nil || res.Cells != 64+8+3 {
		t.Fatalf("Check after the inserts: %+v, %v", res, err)
	}
	for _, key := range []string{"k000031x", "k000031y", "k000031z"} {
		if v, err := fresh.Get(ctx, tx, []byte(key)); err != nil || string(v) != "v-"+key {
			t.Errorf("Get %q through a fresh handle: %q, %v", key, v, err)
		}
	}

	// A third handle, stale the same way, reads through its plan.
	stale := openReader(t, c)
	old := c.BeginAt(tx.Snapshot())
	scanAllAt(t, stale, old)
	old.Abort()
	for i := 0; i < 8; i++ {
		putAuto(t, c, loader, fmt.Sprintf("k000047%c", 'a'+i), "filler")
	}
	now := c.Begin()
	defer now.Abort()
	got, err := stale.GetBatch(ctx, now, [][]byte{[]byte("k000047h"), []byte("k000003"), []byte("k000047zz"), []byte("k000048")})
	if err != nil {
		t.Fatal(err)
	}
	if string(got[0]) != "filler" || string(got[1]) != "v3" || got[2] != nil || string(got[3]) != "v48" {
		t.Errorf("GetBatch through a stale route: %q", got)
	}
}

// TestStaleBatchCostsOneStaleGet: a GetBatch whose keys all route
// through a stale cache to a leaf that has since split costs what one
// Get of the first of them does: its planned round finds the route
// stale, the first key's descent backs down and reads the path afresh,
// and the round that reads that key's leaf reads every other key's too —
// not one round each, as their planned reads of the old leaf would leave
// them.
func TestStaleBatchCostsOneStaleGet(t *testing.T) {
	_, c, loader := planTree(t)
	ctx := context.Background()
	one, batch := openReader(t, c), openReader(t, c)
	for _, tree := range []*dbt.Tree{one, batch} {
		tx := c.Begin()
		scanAllAt(t, tree, tx)
		tx.Abort()
	}
	for i := 0; i < 8; i++ {
		putAuto(t, c, loader, fmt.Sprintf("k000047%c", 'a'+i), "filler")
	}
	cost := func(tree *dbt.Tree, keys ...string) (rounds, backDowns uint64) {
		t.Helper()
		rounds, backDowns = c.ReadRounds(), tree.Stats().BackDowns
		tx := c.Begin()
		defer tx.Abort()
		var bs [][]byte
		for _, k := range keys {
			bs = append(bs, []byte(k))
		}
		got, err := tree.GetBatch(ctx, tx, bs)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if string(v) != "filler" {
				t.Errorf("GetBatch %q: %q", keys[i], v)
			}
		}
		return c.ReadRounds() - rounds, tree.Stats().BackDowns - backDowns
	}
	oneRounds, oneBack := cost(one, "k000047d")
	batchRounds, batchBack := cost(batch, "k000047d", "k000047e", "k000047f", "k000047g")
	if oneBack != 1 || batchBack != 1 {
		t.Fatalf("back-downs: %d for one key, %d for four, want 1 each (the route was not stale?)", oneBack, batchBack)
	}
	// The batch's planned round is the lone Get's stale read, and the
	// descent's leaf round reads every key's leaf.
	if batchRounds != oneRounds {
		t.Errorf("four keys through a stale route: %d read rounds, one key %d", batchRounds, oneRounds)
	}
}

// TestPlanOnColdCache: a handle that has cached nothing can route no
// key, plans nothing, and pays what it paid before there were plans: a
// planned insert costs a cold handle the reads an unplanned one does,
// and a cold multi-key lookup is one Get after another, each inner node
// read once on the way.
func TestPlanOnColdCache(t *testing.T) {
	cl, c, _ := planTree(t)
	pReads, pRounds, _ := insertCost(t, cl, c, openReader(t, c), "k000031x", true)
	uReads, uRounds, _ := insertCost(t, cl, c, openReader(t, c), "k000031y", false)
	if pReads != uReads || pRounds != uRounds {
		t.Errorf("cold planned insert: %d reads in %d rounds; unplanned: %d in %d", pReads, pRounds, uReads, uRounds)
	}

	cold := openReader(t, c)
	keys := [][]byte{[]byte("k000002"), []byte("k000017"), []byte("k000033"), []byte("k000049"), []byte("k000063"), []byte("absent")}
	reads, rounds := cl.Stats().Reads, c.ReadRounds()
	tx := c.Begin()
	defer tx.Abort()
	got, err := cold.GetBatch(context.Background(), tx, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"v2", "v17", "v33", "v49", "v63", ""} {
		if string(got[i]) != want {
			t.Errorf("cold GetBatch %q: %q, want %q", keys[i], got[i], want)
		}
	}
	reads, rounds = cl.Stats().Reads-reads, c.ReadRounds()-rounds
	inner := uint64(cold.CacheSize())
	if want := inner + uint64(len(keys)); reads != want || rounds != want {
		t.Errorf("cold GetBatch of %d keys: %d reads in %d rounds with %d inner nodes read, want %d in %d",
			len(keys), reads, rounds, inner, want, want)
	}
}

// TestPlanScanIsTheScansFirstRound: the reads PlanScan names for a range
// are the ones the range's scan asks for first, so a caller that
// prefetches them (with whatever else it will read) leaves that scan
// nothing to wait for — whether the iterator would have left the one leaf
// to its descent or read a run of them, and in a transaction with staged
// writes, which scans leaf by leaf, uncapped — and has read nothing the
// scan alone would not have. A cold handle and an empty range plan
// nothing, and so does an ablated handle (one that reads leaves whole),
// however warm its cache.
func TestPlanScanIsTheScansFirstRound(t *testing.T) {
	t.Run("NoPartial=false", testPlanScan)
	t.Run("NoPartial=true", func(t *testing.T) {
		_, c, _ := planTree(t)
		ablated, err := dbt.Open(context.Background(), c, 1, dbt.Config{MaxCells: 8, NoPartial: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ablated.Close)
		tx := c.Begin()
		defer tx.Abort()
		scanAllAt(t, ablated, tx)
		if plan := ablated.PlanScan(nil, tx, dbt.Range{Lo: []byte("k000002"), Hi: []byte("k000011")}); plan != nil {
			t.Errorf("an ablated handle planned %d scan reads", len(plan))
		}
		if plan := ablated.PlanPoint(nil, []byte("k000031")); plan != nil {
			t.Errorf("an ablated handle planned %d point reads", len(plan))
		}
	})
}

func testPlanScan(t *testing.T) {
	cl, c, _ := planTree(t)
	ctx := context.Background()
	tree, err := dbt.Open(ctx, c, 1, dbt.Config{MaxCells: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tree.Close)
	if plan := tree.PlanScan(nil, c.Begin(), dbt.Range{Lo: []byte("k000010"), Hi: []byte("k000030")}); plan != nil {
		t.Errorf("a cold handle planned %d reads", len(plan))
	}
	warm := c.Begin()
	scanAllAt(t, tree, warm)
	warm.Abort()

	scan := func(tx *kvclient.Tx, r dbt.Range) (keys string) {
		it := tree.NewIterator(ctx, tx, r)
		for n := 0; it.Valid() && (r.Limit <= 0 || n < r.Limit); it.Next() {
			keys += string(it.Key()) + " "
			n++
		}
		if err := it.Err(); err != nil {
			t.Fatalf("scan of %+v: %v", r, err)
		}
		return keys
	}
	for _, tc := range []struct {
		name string
		r    dbt.Range
		more bool // the scan goes on past its first round
	}{
		{"inside one leaf", dbt.Range{Lo: []byte("k000009"), Hi: []byte("k000011")}, false},
		{"across leaves to Hi", dbt.Range{Lo: []byte("k000002"), Hi: []byte("k000011")}, false},
		{"one cell wanted", dbt.Range{Lo: []byte("k000040"), Hi: []byte("k000040\x00"), Limit: 1}, false},
		{"a Limit that reaches into later leaves", dbt.Range{Lo: []byte("k000017"), Limit: 9}, false},
		{"a prefix nothing has", dbt.Range{Lo: []byte("k0000205"), Hi: []byte("k0000206")}, false},
		{"across parents to Hi", dbt.Range{Lo: []byte("k000010"), Hi: []byte("k000023")}, true},
		{"to the end", dbt.Range{Lo: []byte("k000050")}, true},
	} {
		for _, staged := range []bool{false, true} {
			name := fmt.Sprintf("%s, staged writes %v", tc.name, staged)
			begin := func() *kvclient.Tx {
				tx := c.Begin()
				if staged { // a write elsewhere: the scan's cells stay as they are
					tx.Put(c.NewOID(0), kv.NewPlain([]byte("staged")))
				}
				return tx
			}
			reads, rounds := cl.Stats().Reads, c.ReadRounds()
			tx := begin()
			want := scan(tx, tc.r)
			tx.Abort()
			reads, rounds = cl.Stats().Reads-reads, c.ReadRounds()-rounds
			if (rounds > 1) != tc.more && !staged {
				t.Errorf("%s: the scan alone made %d rounds", name, rounds)
			}

			pReads, pRounds := cl.Stats().Reads, c.ReadRounds()
			tx = begin()
			plan := tree.PlanScan(nil, tx, tc.r)
			if err := tx.Prefetch(ctx, plan); err != nil {
				t.Fatal(err)
			}
			if n := c.ReadRounds() - pRounds; len(plan) == 0 || n != 1 {
				t.Errorf("%s: %d reads planned, fetched in %d rounds", name, len(plan), n)
			}
			got := scan(tx, tc.r)
			tx.Abort()
			pReads, pRounds = cl.Stats().Reads-pReads, c.ReadRounds()-pRounds
			t.Logf("%s: %d reads planned; %d reads in %d rounds", name, len(plan), pReads, pRounds)
			if got != want {
				t.Errorf("%s: planned scan %q, unplanned %q", name, got, want)
			}
			if pReads != reads || pRounds != rounds {
				t.Errorf("%s: planned scan cost %d reads in %d rounds, unplanned %d in %d", name, pReads, pRounds, reads, rounds)
			}
		}
	}
	if plan := tree.PlanScan(nil, c.Begin(), dbt.Range{Lo: []byte("k000030"), Hi: []byte("k000010")}); plan != nil {
		t.Errorf("an empty range planned %d reads", len(plan))
	}
}
