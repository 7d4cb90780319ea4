package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"yesquel/internal/baseline"
	"yesquel/internal/cluster"
	"yesquel/internal/core"
	"yesquel/internal/dbt"
	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
	"yesquel/internal/kv/kvserver"
	"yesquel/internal/sql"
	"yesquel/internal/wiki"
	"yesquel/internal/ycsb"
)

// benchTreeID is the tree id used for direct-DBT experiments.
const benchTreeID = 7

// putRetry inserts one key with conflict retries (splits race writers
// by design).
func putRetry(ctx context.Context, c *kvclient.Client, tree *dbt.Tree, key, val []byte) error {
	for attempt := 0; ; attempt++ {
		tx := c.Begin()
		err := tree.Put(ctx, tx, key, val)
		if err == nil {
			err = tx.Commit(ctx)
		} else {
			tx.Abort()
		}
		if err == nil {
			return nil
		}
		if !errors.Is(err, kv.ErrConflict) || attempt > 50 {
			return err
		}
		time.Sleep(time.Duration(attempt+1) * 100 * time.Microsecond)
	}
}

// bulkLoadTree inserts records 0..n-1 into tree in batches, through a
// default handle whatever tree's configuration: each batch's commit
// splits the leaves it grew, so the splits serialize with the batches
// instead of aborting them.
func bulkLoadTree(ctx context.Context, c *kvclient.Client, mainTree *dbt.Tree, n int) error {
	tree := dbt.OpenUnchecked(c, mainTree.ID(), dbt.Config{})
	const batch = 64
	for base := 0; base < n; base += batch {
		end := base + batch
		if end > n {
			end = n
		}
		ok := false
		for attempt := 0; attempt < 50 && !ok; attempt++ {
			tx := c.Begin()
			var err error
			for i := base; i < end; i++ {
				if err = tree.Put(ctx, tx, []byte(ycsb.KeyName(int64(i))), ycsb.Value(int64(i))); err != nil {
					break
				}
			}
			if err == nil {
				err = tx.Commit(ctx)
			} else {
				tx.Abort()
			}
			if err == nil {
				ok = true
			} else if !errors.Is(err, kv.ErrConflict) {
				return err
			} else {
				time.Sleep(time.Duration(attempt+1) * 200 * time.Microsecond)
			}
		}
		if !ok {
			return fmt.Errorf("bench: bulk load batch at %d kept conflicting", base)
		}
	}
	return nil
}

// RunE1 — YDBT operation microbenchmark: one server, one client,
// per-operation latency and single-client throughput on a loaded tree.
func RunE1(ctx context.Context, p Params) (*Table, error) {
	p = p.WithDefaults()
	cl, err := cluster.Start(1, kvserver.Config{})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	c, err := cl.NewClient()
	if err != nil {
		return nil, err
	}
	defer c.Close()
	// No-op on this unreplicated cluster, but keeps the experiment
	// honest when pointed at a replicated deployment: read-only
	// transactions go to whatever replica can serve them.
	c.SetFollowerReads(true)
	tree, err := dbt.Create(ctx, c, benchTreeID, dbt.Config{})
	if err != nil {
		return nil, err
	}
	if err := bulkLoadTree(ctx, c, tree, p.Records); err != nil {
		return nil, err
	}

	iters := 2000
	if iters > p.Records {
		iters = p.Records
	}
	rng := rand.New(rand.NewSource(1))
	table := &Table{
		Title: "E1: YDBT operation microbenchmark (1 server, 1 client, " +
			fmt.Sprintf("%d records)", p.Records),
		Comment: "paper claim: lookups ~1 network round trip; inserts/deletes add commit;\nscans amortize one leaf read per ~leaf of cells",
		Header:  []string{"operation", "mean", "p50", "p99", "ops/s"},
	}
	measure := func(name string, fn func(i int) error) error {
		lat := &latencies{}
		start := time.Now()
		for i := 0; i < iters; i++ {
			t0 := time.Now()
			if err := fn(i); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			lat.add(time.Since(t0))
		}
		elapsed := time.Since(start)
		table.Rows = append(table.Rows, Row{Cells: []string{
			name, fmtDur(lat.mean()), fmtDur(lat.percentile(0.50)),
			fmtDur(lat.percentile(0.99)), fmtF(opsPerSec(uint64(iters), elapsed)),
		}})
		return nil
	}

	if err := measure("lookup", func(i int) error {
		// Read-only: BeginFollower lets a replicated deployment serve
		// the lookup from any replica at the durability frontier; on an
		// unreplicated cluster it is identical to Begin.
		tx := c.BeginFollower()
		defer tx.Abort()
		_, err := tree.Get(ctx, tx, []byte(ycsb.KeyName(rng.Int63n(int64(p.Records)))))
		return err
	}); err != nil {
		return nil, err
	}
	if err := measure("insert", func(i int) error {
		return putRetry(ctx, c, tree, []byte(ycsb.KeyName(int64(p.Records+i))), ycsb.Value(int64(i)))
	}); err != nil {
		return nil, err
	}
	if err := measure("update", func(i int) error {
		return putRetry(ctx, c, tree, []byte(ycsb.KeyName(rng.Int63n(int64(p.Records)))), ycsb.Value(int64(i)))
	}); err != nil {
		return nil, err
	}
	if err := measure("delete", func(i int) error {
		tx := c.Begin()
		err := tree.Delete(ctx, tx, []byte(ycsb.KeyName(int64(p.Records+i))))
		if err != nil {
			tx.Abort()
			return err
		}
		return tx.Commit(ctx)
	}); err != nil {
		return nil, err
	}
	if err := measure("scan100", func(i int) error {
		tx := c.BeginFollower()
		defer tx.Abort()
		_, err := tree.Scan(ctx, tx, []byte(ycsb.KeyName(rng.Int63n(int64(p.Records)))), 100)
		return err
	}); err != nil {
		return nil, err
	}
	return table, nil
}

// RunE2 — YDBT scalability: aggregate throughput as storage servers are
// added, with the client population scaled 4x per server (the paper's
// near-linear scaling figure).
func RunE2(ctx context.Context, p Params) (*Table, error) {
	p = p.WithDefaults()
	table := &Table{
		Title: "E2: YDBT scalability (clients = 4 x servers)",
		Comment: "paper claim: aggregate throughput grows near-linearly with servers\n" +
			"balance = min/max share of reads served per storage server (1.00 = perfectly even);\n" +
			"on a host with fewer cores than servers the wall-clock curve flattens (CPU-bound),\n" +
			"but the balance column still shows the load spreading that drives the paper's scaling",
		Header: []string{"servers", "clients", "uniform reads/s", "zipfian reads/s", "95/5 r/w ops/s", "balance"},
	}
	for _, n := range p.Servers {
		cl, err := cluster.Start(n, kvserver.Config{})
		if err != nil {
			return nil, err
		}
		loader, err := cl.NewClient()
		if err != nil {
			cl.Close()
			return nil, err
		}
		tree, err := dbt.Create(ctx, loader, benchTreeID, dbt.Config{})
		if err != nil {
			cl.Close()
			return nil, err
		}
		if err := bulkLoadTree(ctx, loader, tree, p.Records); err != nil {
			cl.Close()
			return nil, err
		}
		workers := 4 * n
		// Each worker models one client host: its own connections and
		// its own inner-node cache.
		wcs := make([]*kvclient.Client, workers)
		wts := make([]*dbt.Tree, workers)
		for w := range wcs {
			wc, err := cl.NewClient()
			if err != nil {
				cl.Close()
				return nil, err
			}
			wc.SetFollowerReads(true)
			wt, err := dbt.Open(ctx, wc, benchTreeID, dbt.Config{})
			if err != nil {
				cl.Close()
				return nil, err
			}
			wcs[w], wts[w] = wc, wt
		}
		cells := []string{fmt.Sprintf("%d", n), fmt.Sprintf("%d", workers)}
		var balance string

		for _, mode := range []string{"uniform", "zipfian", "mixed"} {
			readsBefore := make([]uint64, n)
			for i, srv := range cl.Servers {
				readsBefore[i] = srv.Store().Stats().Reads
			}
			rngs := make([]*rand.Rand, workers)
			zipfs := make([]*ycsb.Zipfian, workers)
			for w := range rngs {
				rngs[w] = rand.New(rand.NewSource(int64(w + 1)))
				zipfs[w] = ycsb.NewZipfian(rngs[w], int64(p.Records), ycsb.DefaultTheta)
			}
			insertSeq := make([]int64, workers)
			ops, _, elapsed := runFor(p.Duration, workers, func(w int) (int, error) {
				var key int64
				if mode == "uniform" {
					key = rngs[w].Int63n(int64(p.Records))
				} else {
					key = zipfs[w].Next()
				}
				if mode == "mixed" && rngs[w].Intn(20) == 0 {
					k := int64(w+1)<<40 | insertSeq[w]
					insertSeq[w]++
					if err := putRetry(ctx, wcs[w], wts[w], []byte(ycsb.KeyName(k)), ycsb.Value(k)); err != nil {
						return 0, err
					}
					return 1, nil
				}
				tx := wcs[w].BeginFollower()
				defer tx.Abort()
				_, err := wts[w].Get(ctx, tx, []byte(ycsb.KeyName(key)))
				if err != nil && !errors.Is(err, dbt.ErrKeyNotFound) {
					return 0, err
				}
				return 1, nil
			})
			cells = append(cells, fmtF(opsPerSec(ops, elapsed)))
			if mode == "uniform" {
				minReads, maxReads := ^uint64(0), uint64(0)
				for i, srv := range cl.Servers {
					d := srv.Store().Stats().Reads - readsBefore[i]
					if d < minReads {
						minReads = d
					}
					if d > maxReads {
						maxReads = d
					}
				}
				balance = "1.00"
				if maxReads > 0 {
					balance = fmt.Sprintf("%.2f", float64(minReads)/float64(maxReads))
				}
			}
		}
		cells = append(cells, balance)
		table.Rows = append(table.Rows, Row{Cells: cells})
		for w := range wcs {
			wcs[w].Close()
		}
		loader.Close()
		cl.Close()
	}
	return table, nil
}

// ycsbSQLSchema is the table used by the SQL side of E3.
const ycsbSQLSchema = "CREATE TABLE usertable (k TEXT PRIMARY KEY, v BLOB)"

// RunE3 — YCSB A–F: Yesquel (full SQL path) vs the NOSQL comparator
// (raw KV ops; workload E's scans use direct DBT access, since a plain
// KV store has no ordered scan).
func RunE3(ctx context.Context, p Params) (*Table, error) {
	p = p.WithDefaults()
	const servers = 4
	cl, err := cluster.Start(servers, kvserver.Config{})
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	// --- Yesquel side ---
	yc, err := core.Connect(cl.Addrs, core.Options{})
	if err != nil {
		return nil, err
	}
	defer yc.Close()
	setup := yc.Session()
	if _, err := setup.Exec(ctx, ycsbSQLSchema); err != nil {
		return nil, err
	}
	for i := 0; i < p.Records; i++ {
		if _, err := setup.Exec(ctx, "INSERT INTO usertable VALUES (?, ?)",
			sql.Text(ycsb.KeyName(int64(i))), sql.Blob(ycsb.Value(int64(i)))); err != nil {
			return nil, err
		}
	}

	// --- NOSQL side: raw kv + a direct DBT for scans ---
	kvc, err := cl.NewClient()
	if err != nil {
		return nil, err
	}
	defer kvc.Close()
	kvc.SetFollowerReads(true)
	raw := baseline.NewRawKV(kvc)
	for i := 0; i < p.Records; i++ {
		if err := raw.Set(ctx, ycsb.KeyName(int64(i)), ycsb.Value(int64(i))); err != nil {
			return nil, err
		}
	}
	rawTree, err := dbt.Create(ctx, kvc, benchTreeID, dbt.Config{})
	if err != nil {
		return nil, err
	}
	if err := bulkLoadTree(ctx, kvc, rawTree, p.Records); err != nil {
		return nil, err
	}

	table := &Table{
		Title: fmt.Sprintf("E3: YCSB workloads, %d servers, %d workers, %d records",
			servers, p.Workers, p.Records),
		Comment: "paper claim: Yesquel stays within a small factor (~<=3x) of the NOSQL\nstore on every mix; workload E scans on the NOSQL side use the DBT directly",
		Header:  []string{"workload", "yesquel ops/s", "nosql ops/s", "nosql/yesquel"},
	}

	for _, wl := range []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadB, ycsb.WorkloadC, ycsb.WorkloadD, ycsb.WorkloadE, ycsb.WorkloadF} {
		// Yesquel.
		sessions := make([]*sql.DB, p.Workers)
		gens := make([]*ycsb.Generator, p.Workers)
		for w := range sessions {
			sessions[w] = yc.Session()
			g, err := ycsb.NewGenerator(wl, int64(p.Records), int64(w+1))
			if err != nil {
				return nil, err
			}
			g.SetInsertBase(int64(w+1) << 40)
			gens[w] = g
		}
		yOps, yErrs, yElapsed := runFor(p.Duration, p.Workers, func(w int) (int, error) {
			return runYCSBSQLOp(ctx, sessions[w], gens[w].Next())
		})
		_ = yErrs

		// NOSQL.
		gens2 := make([]*ycsb.Generator, p.Workers)
		for w := range gens2 {
			g, err := ycsb.NewGenerator(wl, int64(p.Records), int64(w+101))
			if err != nil {
				return nil, err
			}
			g.SetInsertBase(int64(w+100) << 40)
			gens2[w] = g
		}
		nOps, nErrs, nElapsed := runFor(p.Duration, p.Workers, func(w int) (int, error) {
			return runYCSBKVOp(ctx, kvc, raw, rawTree, gens2[w].Next())
		})
		_ = nErrs

		yRate := opsPerSec(yOps, yElapsed)
		nRate := opsPerSec(nOps, nElapsed)
		ratio := "-"
		if yRate > 0 {
			ratio = fmt.Sprintf("%.2fx", nRate/yRate)
		}
		table.Rows = append(table.Rows, Row{Cells: []string{
			string(wl), fmtF(yRate), fmtF(nRate), ratio,
		}})
	}
	return table, nil
}

func runYCSBSQLOp(ctx context.Context, db *sql.DB, op ycsb.Op) (int, error) {
	key := sql.Text(ycsb.KeyName(op.Key))
	switch op.Kind {
	case ycsb.OpRead:
		_, err := db.Query(ctx, "SELECT v FROM usertable WHERE k = ?", key)
		return 1, err
	case ycsb.OpUpdate:
		_, err := db.Exec(ctx, "UPDATE usertable SET v = ? WHERE k = ?", sql.Blob(ycsb.Value(op.Key+1)), key)
		return 1, err
	case ycsb.OpInsert:
		_, err := db.Exec(ctx, "INSERT INTO usertable VALUES (?, ?)", key, sql.Blob(ycsb.Value(op.Key)))
		return 1, err
	case ycsb.OpScan:
		_, err := db.Query(ctx, "SELECT k, v FROM usertable WHERE k >= ? LIMIT ?", key, sql.Int(int64(op.ScanLen)))
		return 1, err
	case ycsb.OpRMW:
		rows, err := db.Query(ctx, "SELECT v FROM usertable WHERE k = ?", key)
		if err != nil {
			return 0, err
		}
		_ = rows
		_, err = db.Exec(ctx, "UPDATE usertable SET v = ? WHERE k = ?", sql.Blob(ycsb.Value(op.Key+2)), key)
		return 1, err
	}
	return 0, fmt.Errorf("bench: bad op")
}

func runYCSBKVOp(ctx context.Context, c *kvclient.Client, raw *baseline.RawKV, tree *dbt.Tree, op ycsb.Op) (int, error) {
	key := ycsb.KeyName(op.Key)
	switch op.Kind {
	case ycsb.OpRead:
		_, err := raw.Get(ctx, key)
		if errors.Is(err, kv.ErrNotFound) {
			err = nil
		}
		return 1, err
	case ycsb.OpUpdate, ycsb.OpInsert:
		return 1, raw.Set(ctx, key, ycsb.Value(op.Key+1))
	case ycsb.OpScan:
		// Scans never write: the follower snapshot routes them off the
		// primary wherever the deployment is replicated.
		tx := c.BeginFollower()
		defer tx.Abort()
		_, err := tree.Scan(ctx, tx, []byte(key), op.ScanLen)
		return 1, err
	case ycsb.OpRMW:
		v, err := raw.Get(ctx, key)
		if err != nil && !errors.Is(err, kv.ErrNotFound) {
			return 0, err
		}
		_ = v
		return 1, raw.Set(ctx, key, ycsb.Value(op.Key+2))
	}
	return 0, fmt.Errorf("bench: bad op")
}

// RunE4 — the Wikipedia application: Yesquel scaling with servers vs
// the centralized SQL comparator at the same client counts.
func RunE4(ctx context.Context, p Params) (*Table, error) {
	p = p.WithDefaults()
	pages := p.Records / 20
	if pages < 50 {
		pages = 50
	}
	table := &Table{
		Title:   fmt.Sprintf("E4: Wikipedia workload (%d pages, 90/10 read/edit, clients = 4 x servers)", pages),
		Comment: "paper claim: Yesquel's throughput grows with storage servers while the\ncentralized engine plateaus at its worker pool",
		Header:  []string{"servers", "clients", "yesquel ops/s", "centralized ops/s"},
	}

	// Centralized comparator: built once; its capacity does not grow.
	csrv, err := baseline.NewCentralSQLServer(8)
	if err != nil {
		return nil, err
	}
	defer csrv.Close()
	if err := csrv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	go csrv.Serve()
	cload, err := baseline.DialCentralSQL(csrv.Addr())
	if err != nil {
		return nil, err
	}
	defer cload.Close()
	if err := wiki.Load(ctx, cload, pages, 3); err != nil {
		return nil, err
	}

	for _, n := range p.Servers {
		cl, err := cluster.Start(n, kvserver.Config{})
		if err != nil {
			return nil, err
		}
		yc, err := core.Connect(cl.Addrs, core.Options{})
		if err != nil {
			cl.Close()
			return nil, err
		}
		if err := wiki.Load(ctx, wiki.DBExecutor{DB: yc.Session()}, pages, 3); err != nil {
			yc.Close()
			cl.Close()
			return nil, err
		}
		workers := 4 * n

		yworkers := make([]*wiki.Worker, workers)
		for w := range yworkers {
			yworkers[w] = wiki.NewWorker(wiki.DBExecutor{DB: yc.Session()}, int64(pages), 0.1, int64(w+1))
		}
		yOps, _, yElapsed := runFor(p.Duration, workers, func(w int) (int, error) {
			if err := yworkers[w].Step(ctx); err != nil {
				return 0, err
			}
			return 1, nil
		})

		cworkers := make([]*wiki.Worker, workers)
		cconns := make([]*baseline.CentralSQLClient, workers)
		for w := range cworkers {
			cc, err := baseline.DialCentralSQL(csrv.Addr())
			if err != nil {
				yc.Close()
				cl.Close()
				return nil, err
			}
			cconns[w] = cc
			cworkers[w] = wiki.NewWorker(cc, int64(pages), 0.1, int64(1000+w))
		}
		cOps, _, cElapsed := runFor(p.Duration, workers, func(w int) (int, error) {
			if err := cworkers[w].Step(ctx); err != nil {
				return 0, err
			}
			return 1, nil
		})
		for _, cc := range cconns {
			cc.Close()
		}

		table.Rows = append(table.Rows, Row{Cells: []string{
			fmt.Sprintf("%d", n), fmt.Sprintf("%d", workers),
			fmtF(opsPerSec(yOps, yElapsed)), fmtF(opsPerSec(cOps, cElapsed)),
		}})
		yc.Close()
		cl.Close()
	}
	return table, nil
}

// RunE5 — ablation of YDBT optimizations: the full tree vs each
// optimization disabled, on a 50/50 lookup/update mix.
func RunE5(ctx context.Context, p Params) (*Table, error) {
	p = p.WithDefaults()
	const servers = 4
	configs := []struct {
		name string
		cfg  dbt.Config
	}{
		{"full YDBT", dbt.Config{}},
		{"no inner-node cache", dbt.Config{NoCache: true}},
		{"no delta ops", dbt.Config{NoDelta: true}},
		{"no partial reads", dbt.Config{NoPartial: true}},
		{"naive (all disabled)", dbt.NaiveConfig()},
	}
	table := &Table{
		Title:   fmt.Sprintf("E5: YDBT optimization ablation (%d servers, %d workers, 50/50 read/update)", servers, 8),
		Comment: "paper claim: caching removes inner-node reads from every descent; delta ops\nremove leaf rewrite bytes; splits run in their own transactions, which the writer\nthat grew the node waits for",
		Header:  []string{"configuration", "ops/s", "node reads/op", "vs full"},
	}
	var fullRate float64
	for _, cfg := range configs {
		cl, err := cluster.Start(servers, kvserver.Config{})
		if err != nil {
			return nil, err
		}
		loader, err := cl.NewClient()
		if err != nil {
			cl.Close()
			return nil, err
		}
		tree, err := dbt.Create(ctx, loader, benchTreeID, cfg.cfg)
		if err != nil {
			cl.Close()
			return nil, err
		}
		if err := bulkLoadTree(ctx, loader, tree, p.Records); err != nil {
			cl.Close()
			return nil, err
		}

		const workers = 8
		wcs := make([]*kvclient.Client, workers)
		wts := make([]*dbt.Tree, workers)
		rngs := make([]*rand.Rand, workers)
		for w := 0; w < workers; w++ {
			wc, err := cl.NewClient()
			if err != nil {
				cl.Close()
				return nil, err
			}
			wt, err := dbt.Open(ctx, wc, benchTreeID, cfg.cfg)
			if err != nil {
				cl.Close()
				return nil, err
			}
			wcs[w], wts[w], rngs[w] = wc, wt, rand.New(rand.NewSource(int64(w+1)))
		}
		readsBefore := uint64(0)
		for _, wt := range wts {
			readsBefore += wt.Stats().NodeReads
		}
		ops, _, elapsed := runFor(p.Duration, workers, func(w int) (int, error) {
			key := []byte(ycsb.KeyName(rngs[w].Int63n(int64(p.Records))))
			if rngs[w].Intn(2) == 0 {
				tx := wcs[w].Begin()
				defer tx.Abort()
				_, err := wts[w].Get(ctx, tx, key)
				if err != nil && !errors.Is(err, dbt.ErrKeyNotFound) {
					return 0, err
				}
				return 1, nil
			}
			if err := putRetry(ctx, wcs[w], wts[w], key, ycsb.Value(int64(w))); err != nil {
				return 0, err
			}
			return 1, nil
		})
		readsAfter := uint64(0)
		for _, wt := range wts {
			readsAfter += wt.Stats().NodeReads
		}
		rate := opsPerSec(ops, elapsed)
		if cfg.name == "full YDBT" {
			fullRate = rate
		}
		perOp := "-"
		if ops > 0 {
			perOp = fmt.Sprintf("%.2f", float64(readsAfter-readsBefore)/float64(ops))
		}
		rel := "-"
		if fullRate > 0 {
			rel = fmt.Sprintf("%.2fx", rate/fullRate)
		}
		table.Rows = append(table.Rows, Row{Cells: []string{cfg.name, fmtF(rate), perOp, rel}})
		for w := 0; w < workers; w++ {
			wcs[w].Close()
		}
		loader.Close()
		cl.Close()
	}
	return table, nil
}

// RunE6 — commit latency vs number of participant servers: read-only
// commits are free; one participant uses the one-round fast path; more
// participants pay two-phase commit.
func RunE6(ctx context.Context, p Params) (*Table, error) {
	p = p.WithDefaults()
	const servers = 8
	cl, err := cluster.Start(servers, kvserver.Config{})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	c, err := cl.NewClient()
	if err != nil {
		return nil, err
	}
	defer c.Close()

	table := &Table{
		Title:   "E6: transaction commit latency vs participants (8 servers)",
		Comment: "paper claim: read-only commits need no communication; single-participant\ncommits take one round trip; k-participant commits pay 2PC (two rounds)",
		Header:  []string{"participants", "mean", "p50", "p99"},
	}
	oids := make([]kv.OID, servers)
	for i := range oids {
		oids[i] = c.NewOID(uint16(i))
	}
	const iters = 400
	for k := 0; k <= servers; k++ {
		lat := &latencies{}
		for i := 0; i < iters; i++ {
			tx := c.Begin()
			for j := 0; j < k; j++ {
				tx.ListAdd(oids[j], []byte(fmt.Sprintf("i%06d", i)), []byte("v"))
			}
			t0 := time.Now()
			if err := tx.Commit(ctx); err != nil {
				return nil, err
			}
			lat.add(time.Since(t0))
		}
		name := fmt.Sprintf("%d", k)
		if k == 0 {
			name = "0 (read-only)"
		}
		table.Rows = append(table.Rows, Row{Cells: []string{
			name, fmtDur(lat.mean()), fmtDur(lat.percentile(0.5)), fmtDur(lat.percentile(0.99)),
		}})
	}
	return table, nil
}

// RunE7 — scan throughput: the fence-navigated iterator with cached
// descents vs the naive (uncached) configuration.
func RunE7(ctx context.Context, p Params) (*Table, error) {
	p = p.WithDefaults()
	const servers = 4
	cl, err := cluster.Start(servers, kvserver.Config{})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	loader, err := cl.NewClient()
	if err != nil {
		return nil, err
	}
	defer loader.Close()
	tree, err := dbt.Create(ctx, loader, benchTreeID, dbt.Config{})
	if err != nil {
		return nil, err
	}
	if err := bulkLoadTree(ctx, loader, tree, p.Records); err != nil {
		return nil, err
	}

	table := &Table{
		Title:   fmt.Sprintf("E7: scan throughput (%d servers, %d records)", servers, p.Records),
		Comment: "paper claim: scans amortize to ~1 leaf read per leaf; without the cache\nevery next-leaf step re-reads the inner path",
		Header:  []string{"scan length", "config", "scans/s", "cells/s"},
	}
	for _, scanLen := range []int{10, 100, 1000} {
		for _, cfg := range []struct {
			name string
			c    dbt.Config
		}{{"full", dbt.Config{}}, {"no cache", dbt.Config{NoCache: true}}} {
			wc, err := cl.NewClient()
			if err != nil {
				return nil, err
			}
			wt, err := dbt.Open(ctx, wc, benchTreeID, cfg.c)
			if err != nil {
				wc.Close()
				return nil, err
			}
			scanRngs := make([]*rand.Rand, 4)
			for w := range scanRngs {
				scanRngs[w] = rand.New(rand.NewSource(int64(7 + w)))
			}
			var cellCount atomic64
			ops, _, elapsed := runFor(p.Duration, 4, func(w int) (int, error) {
				start := scanRngs[w].Int63n(int64(p.Records))
				tx := wc.Begin()
				defer tx.Abort()
				cells, err := wt.Scan(ctx, tx, []byte(ycsb.KeyName(start)), scanLen)
				if err != nil {
					return 0, err
				}
				cellCount.add(int64(len(cells)))
				return 1, nil
			})
			table.Rows = append(table.Rows, Row{Cells: []string{
				fmt.Sprintf("%d", scanLen), cfg.name,
				fmtF(opsPerSec(ops, elapsed)),
				fmtF(float64(cellCount.load()) / elapsed.Seconds()),
			}})
			wc.Close()
		}
	}
	return table, nil
}

// RunE8 — SQL statement microbenchmarks: per-statement latency of the
// query shapes Web applications issue.
func RunE8(ctx context.Context, p Params) (*Table, error) {
	p = p.WithDefaults()
	const servers = 4
	cl, err := cluster.Start(servers, kvserver.Config{})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	yc, err := core.Connect(cl.Addrs, core.Options{})
	if err != nil {
		return nil, err
	}
	defer yc.Close()
	db := yc.Session()

	for _, q := range []string{
		"CREATE TABLE item (id INTEGER PRIMARY KEY, cat INTEGER, name TEXT, price REAL)",
		"CREATE INDEX item_cat ON item (cat)",
		"CREATE TABLE fact (id INTEGER PRIMARY KEY, item_id INTEGER, qty INTEGER)",
	} {
		if _, err := db.Exec(ctx, q); err != nil {
			return nil, err
		}
	}
	nItems := p.Records / 10
	if nItems < 500 {
		nItems = 500
	}
	for i := 0; i < nItems; i++ {
		if _, err := db.Exec(ctx, "INSERT INTO item VALUES (?, ?, ?, ?)",
			sql.Int(int64(i)), sql.Int(int64(i%50)), sql.Text(fmt.Sprintf("item-%d", i)),
			sql.Float(float64(i)*0.5)); err != nil {
			return nil, err
		}
		if _, err := db.Exec(ctx, "INSERT INTO fact VALUES (?, ?, ?)",
			sql.Int(int64(i)), sql.Int(int64(i)), sql.Int(int64(i%7))); err != nil {
			return nil, err
		}
	}

	table := &Table{
		Title:   fmt.Sprintf("E8: SQL statement microbenchmarks (%d servers, %d rows)", servers, nItems),
		Comment: "per-statement latency of the paper's target query shapes",
		Header:  []string{"statement", "mean", "p50", "p99"},
	}
	rng := rand.New(rand.NewSource(3))
	const iters = 300
	insertSeq := int64(nItems) + 1
	stmts := []struct {
		name string
		fn   func(i int) error
	}{
		{"point SELECT by pk", func(i int) error {
			_, err := db.Query(ctx, "SELECT name, price FROM item WHERE id = ?", sql.Int(rng.Int63n(int64(nItems))))
			return err
		}},
		{"SELECT by secondary index", func(i int) error {
			_, err := db.Query(ctx, "SELECT count(*) FROM item WHERE cat = ?", sql.Int(rng.Int63n(50)))
			return err
		}},
		{"pk range scan LIMIT 20", func(i int) error {
			_, err := db.Query(ctx, "SELECT id FROM item WHERE id >= ? LIMIT 20", sql.Int(rng.Int63n(int64(nItems))))
			return err
		}},
		{"INSERT", func(i int) error {
			insertSeq++
			_, err := db.Exec(ctx, "INSERT INTO item VALUES (?, ?, 'new', 1.0)", sql.Int(insertSeq), sql.Int(insertSeq%50))
			return err
		}},
		{"UPDATE by pk", func(i int) error {
			_, err := db.Exec(ctx, "UPDATE item SET price = price + 1 WHERE id = ?", sql.Int(rng.Int63n(int64(nItems))))
			return err
		}},
		{"two-table join (pk inner)", func(i int) error {
			_, err := db.Query(ctx,
				"SELECT item.name, fact.qty FROM fact JOIN item ON item.id = fact.item_id WHERE fact.id = ?",
				sql.Int(rng.Int63n(int64(nItems))))
			return err
		}},
		{"aggregate GROUP BY (50 groups)", func(i int) error {
			_, err := db.Query(ctx, "SELECT cat, count(*), avg(price) FROM item WHERE cat < 5 GROUP BY cat")
			return err
		}},
		{"multi-statement transaction", func(i int) error {
			if _, err := db.Exec(ctx, "BEGIN"); err != nil {
				return err
			}
			id := rng.Int63n(int64(nItems))
			if _, err := db.Exec(ctx, "UPDATE fact SET qty = qty + 1 WHERE id = ?", sql.Int(id)); err != nil {
				db.Exec(ctx, "ROLLBACK")
				return err
			}
			if _, err := db.Exec(ctx, "UPDATE item SET price = price + 0.5 WHERE id = ?", sql.Int(id)); err != nil {
				db.Exec(ctx, "ROLLBACK")
				return err
			}
			_, err := db.Exec(ctx, "COMMIT")
			if errors.Is(err, kv.ErrConflict) {
				return nil // single-threaded here, but be safe
			}
			return err
		}},
	}
	for _, st := range stmts {
		lat := &latencies{}
		for i := 0; i < iters; i++ {
			t0 := time.Now()
			if err := st.fn(i); err != nil {
				return nil, fmt.Errorf("%s: %w", st.name, err)
			}
			lat.add(time.Since(t0))
		}
		table.Rows = append(table.Rows, Row{Cells: []string{
			st.name, fmtDur(lat.mean()), fmtDur(lat.percentile(0.5)), fmtDur(lat.percentile(0.99)),
		}})
	}
	return table, nil
}

// RunE9 — replication overhead: the synchronous primary-backup write
// path (every commit mirrored and acknowledged before the client sees
// it) against the plain single-server write path, plus the same
// comparison under the write-ahead log. Storage-layer replication is
// what lets the SQL layer above stay stateless, so its cost is the
// price of the paper's fault-tolerance story.
func RunE9(ctx context.Context, p Params) (*Table, error) {
	p = p.WithDefaults()
	table := &Table{
		Title:   "E9: replicated vs plain write path (1 slot)",
		Comment: "rf=2 pays a mirror acknowledgment per commit; group commit batches\nconcurrent commits into shared round trips and fsyncs;\nreads are unaffected (not shown)",
		Header:  []string{"config", "writes/s", "mean", "p99"},
	}
	configs := []struct {
		name string
		rf   int
		wal  bool
	}{
		{"rf=1 (plain)", 1, false},
		{"rf=2 (mirrored)", 2, false},
		{"rf=1 + WAL", 1, true},
		{"rf=2 + WAL", 2, true},
	}
	for _, cfg := range configs {
		scfg := kvserver.Config{}
		if cfg.wal {
			dir, err := os.MkdirTemp("", "yesquel-e9-*")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			scfg.LogPath = dir
		}
		cl, err := cluster.StartReplicated(1, cfg.rf, scfg)
		if err != nil {
			return nil, err
		}
		lat := &latencies{}
		var seq atomic.Uint64
		ops, errs, elapsed := runFor(p.Duration, p.Workers, func(worker int) (int, error) {
			c, err := cl.NewClient()
			if err != nil {
				return 0, err
			}
			defer c.Close()
			n := 0
			deadline := time.Now().Add(p.Duration)
			for time.Now().Before(deadline) {
				tx := c.Begin()
				tx.Put(c.NewOID(0), kv.NewPlain([]byte(fmt.Sprintf("w%d", seq.Add(1)))))
				t0 := time.Now()
				if err := tx.Commit(ctx); err != nil {
					return n, err
				}
				lat.add(time.Since(t0))
				n++
			}
			return n, nil
		})
		cl.Close()
		if errs > 0 {
			return nil, fmt.Errorf("e9 %s: %d workers failed", cfg.name, errs)
		}
		table.Rows = append(table.Rows, Row{Cells: []string{
			cfg.name,
			fmt.Sprintf("%.0f", float64(ops)/elapsed.Seconds()),
			fmtDur(lat.mean()), fmtDur(lat.percentile(0.99)),
		}})
	}
	return table, nil
}

// atomic64 is a tiny counter helper.
type atomic64 struct{ v atomic.Int64 }

func (a *atomic64) add(d int64) { a.v.Add(d) }
func (a *atomic64) load() int64 { return a.v.Load() }
