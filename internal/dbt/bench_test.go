package dbt_test

import (
	"context"
	"fmt"
	"testing"

	"yesquel/internal/cluster"
	"yesquel/internal/dbt"
	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
	"yesquel/internal/kv/kvserver"
)

// Layer micro-benches for the tree: one operation per iteration, each in
// its own transaction, against a two-server in-process cluster, through
// a handle with the default dbt.Config whose inner-node cache is warm —
// so a point Get costs exactly its one windowed leaf read and a scan its
// leaf reads, which is the path every read in the system takes
// (kvclient's readItems). Beside time and allocs each reports reads/op,
// the reads the servers observed per operation, and the scan rounds/op,
// the read rounds the client made to get them.
//
//	go test ./internal/dbt -run '^$' -bench . -benchtime 2000x

// benchKeys is how many keys the benches load: several dozen leaves
// under the default MaxCells, spread over both servers.
const benchKeys = 4096

func benchKey(i int) []byte { return []byte(fmt.Sprintf("key%06d", i*7919%benchKeys)) }

// loadBenchTree loads benchKeys keys in 32-key transactions, each of
// which splits what it grew before its commit returns (so which leaves
// exist is the same on every run), and returns a fresh handle with
// configuration cfg, its inner nodes cached if cfg caches any.
func loadBenchTree(tb testing.TB, cfg dbt.Config) (*cluster.Cluster, *kvclient.Client, *dbt.Tree) {
	tb.Helper()
	ctx := context.Background()
	cl, err := cluster.Start(2, kvserver.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(cl.Close)
	c, err := cl.NewClient()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	loader, err := dbt.Create(ctx, c, 1, dbt.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(loader.Close)
	for i := 0; i < benchKeys; i += 32 {
		tx := c.Begin()
		for j := i; j < i+32; j++ {
			if err := loader.Put(ctx, tx, []byte(fmt.Sprintf("key%06d", j)), []byte(fmt.Sprintf("value-%06d", j))); err != nil {
				tb.Fatal(err)
			}
		}
		if err := tx.Commit(ctx); err != nil {
			tb.Fatal(err)
		}
	}
	tree, err := dbt.Open(ctx, c, 1, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(tree.Close)
	if _, err := tree.Get(ctx, c.Begin(), benchKey(0)); err != nil {
		tb.Fatal(err)
	}
	return cl, c, tree
}

var (
	benchValue []byte    // keeps the measured call's result alive
	benchCells []kv.Cell // likewise
)

func BenchmarkGetCached(b *testing.B) {
	cl, c, tree := loadBenchTree(b, dbt.Config{})
	ctx := context.Background()
	b.ReportAllocs()
	before := cl.Stats().Reads
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := tree.Get(ctx, c.Begin(), benchKey(i))
		if err != nil {
			b.Fatal(err)
		}
		benchValue = v
	}
	b.StopTimer()
	b.ReportMetric(float64(cl.Stats().Reads-before)/float64(b.N), "reads/op")
}

func BenchmarkScan50(b *testing.B) {
	cl, c, tree := loadBenchTree(b, dbt.Config{})
	ctx := context.Background()
	b.ReportAllocs()
	before, rounds := cl.Stats().Reads, c.ReadRounds()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells, err := tree.Scan(ctx, c.Begin(), benchKey(i), 50)
		if err != nil {
			b.Fatal(err)
		}
		benchCells = cells
	}
	b.StopTimer()
	b.ReportMetric(float64(cl.Stats().Reads-before)/float64(b.N), "reads/op")
	b.ReportMetric(float64(c.ReadRounds()-rounds)/float64(b.N), "rounds/op")
}

// BenchmarkAblation is the paper's ablation of the tree's optimizations:
// the full tree, each switch on alone, and all of them (the naive tree).
// Iterations alternate a Get and a Put of an existing key, each in its
// own transaction. node-reads/op counts the nodes the handle read
// transactionally; reads/op and rounds/op are as above.
func BenchmarkAblation(b *testing.B) {
	for _, a := range []struct {
		name string
		cfg  dbt.Config
	}{
		{"full", dbt.Config{}},
		{"NoCache", dbt.Config{NoCache: true}},
		{"NoDelta", dbt.Config{NoDelta: true}},
		{"NoPartial", dbt.Config{NoPartial: true}},
		{"naive", dbt.NaiveConfig()},
	} {
		a := a
		b.Run(a.name, func(b *testing.B) {
			cl, c, tree := loadBenchTree(b, a.cfg)
			ctx := context.Background()
			value := []byte("value-update")
			b.ReportAllocs()
			nodeReads, reads, rounds := tree.Stats().NodeReads, cl.Stats().Reads, c.ReadRounds()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := c.Begin()
				if i%2 == 0 {
					v, err := tree.Get(ctx, tx, benchKey(i))
					if err != nil {
						b.Fatal(err)
					}
					benchValue = v
					continue
				}
				if err := tree.Put(ctx, tx, benchKey(i), value); err != nil {
					b.Fatal(err)
				}
				if err := tx.Commit(ctx); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			n := float64(b.N)
			b.ReportMetric(float64(tree.Stats().NodeReads-nodeReads)/n, "node-reads/op")
			b.ReportMetric(float64(cl.Stats().Reads-reads)/n, "reads/op")
			b.ReportMetric(float64(c.ReadRounds()-rounds)/n, "rounds/op")
		})
	}
}
