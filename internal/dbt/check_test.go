package dbt_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"yesquel/internal/dbt"
	"yesquel/internal/kv"
)

func TestCheckEmptyTree(t *testing.T) {
	_, c, tree := startTree(t, 1, dbt.Config{})
	tx := c.Begin()
	defer tx.Abort()
	res, err := tree.Check(context.Background(), tx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != 1 || res.Leaves != 1 || res.Cells != 0 || res.Height != 0 {
		t.Fatalf("empty tree: %+v", res)
	}
}

func TestCheckAfterHeavySplits(t *testing.T) {
	_, c, tree := startTree(t, 4, dbt.Config{MaxCells: 4})
	fillSequential(t, c, tree, 300)
	tx := c.Begin()
	defer tx.Abort()
	res, err := tree.Check(context.Background(), tx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells != 300 {
		t.Fatalf("cells = %d, want 300", res.Cells)
	}
	if res.Height < 2 {
		t.Fatalf("tree too shallow for MaxCells=4 and 300 keys: height %d", res.Height)
	}
	if res.Leaves < 50 {
		t.Fatalf("too few leaves: %d", res.Leaves)
	}
}

func TestCheckUnderConcurrentMutation(t *testing.T) {
	// A snapshot Check must pass even while the tree is being grown
	// concurrently (MVCC isolates the walk).
	_, c, tree := startTree(t, 2, dbt.Config{MaxCells: 8})
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		putAuto(t, c, tree, fmt.Sprintf("base-%04d", i), "v")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(5))
		for {
			select {
			case <-stop:
				return
			default:
			}
			key := fmt.Sprintf("grow-%06d", rng.Intn(100000))
			tx := c.Begin()
			if err := tree.Put(ctx, tx, []byte(key), []byte("x")); err == nil {
				if err := tx.Commit(ctx); err != nil && !errors.Is(err, kv.ErrConflict) {
					t.Error(err)
					return
				}
			} else {
				tx.Abort()
			}
		}
	}()

	for i := 0; i < 5; i++ {
		tx := c.Begin()
		res, err := tree.Check(ctx, tx)
		tx.Abort()
		if err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("check %d under mutation: %v", i, err)
		}
		if res.Cells < 100 {
			close(stop)
			wg.Wait()
			t.Fatalf("check %d lost cells: %d", i, res.Cells)
		}
	}
	close(stop)
	wg.Wait()
}

func TestCheckRandomizedWorkloads(t *testing.T) {
	// Property: after any sequence of puts and deletes, every
	// structural invariant holds and the cell count matches the model.
	for seed := int64(1); seed <= 4; seed++ {
		_, c, tree := startTree(t, 2, dbt.Config{MaxCells: 5})
		ctx := context.Background()
		rng := rand.New(rand.NewSource(seed))
		live := make(map[string]bool)
		for step := 0; step < 250; step++ {
			k := fmt.Sprintf("k%03d", rng.Intn(150))
			if rng.Intn(3) > 0 {
				putAuto(t, c, tree, k, "v")
				live[k] = true
			} else if live[k] {
				tx := c.Begin()
				if err := tree.Delete(ctx, tx, []byte(k)); err != nil {
					tx.Abort()
					t.Fatal(err)
				}
				if err := tx.Commit(ctx); err == nil {
					delete(live, k)
				} else if !errors.Is(err, kv.ErrConflict) {
					t.Fatal(err)
				}
			}
		}
		tx := c.Begin()
		res, err := tree.Check(ctx, tx)
		tx.Abort()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Cells != len(live) {
			t.Fatalf("seed %d: tree has %d cells, model has %d", seed, res.Cells, len(live))
		}
	}
}
