package main

// The traced pass. After the window, on the still-running cluster, one
// worker replays a fixed operation count twice: first with tracing off,
// to count work per operation exactly (nothing else touches the tree
// and server counters meanwhile), then with spans, to time the
// statements. The shadow calls of every statement and the probes of the
// lower layers follow.

import (
	"context"
	"fmt"
	"time"

	"yesquel/internal/dbt"
)

// workloadQueries lists a workload's statements, for the parse probe.
func workloadQueries(spec workloadSpec) []string {
	if spec.Mix == 0 {
		return []string{
			"SELECT id, latest FROM page WHERE title = ?",
			"SELECT content FROM revision WHERE id = ?",
			"SELECT dst_title FROM pagelink WHERE src = ?",
			"INSERT INTO revision VALUES (?, ?, ?, ?)",
			"UPDATE page SET latest = ? WHERE id = ?",
		}
	}
	return []string{sqlRead, sqlScan, sqlUpdate, sqlInsert}
}

func workloadTables(spec workloadSpec) []string {
	if spec.Mix == 0 {
		return []string{"page", "revision", "pagelink"}
	}
	return []string{"usertable"}
}

// workloadTrees returns the handles of every tree the workload's
// statements use; their counters are the dbt layer's work.
func workloadTrees(ctx context.Context, sys *system) ([]*dbt.Tree, error) {
	var trees []*dbt.Tree
	for _, name := range workloadTables(sys.spec) {
		t, err := table(ctx, sys.kvc, sys.cat, name)
		if err != nil {
			return nil, err
		}
		trees = append(trees, t.Tree)
		trees = append(trees, t.IndexTrees...)
	}
	return trees, nil
}

// replay runs n operations on one new worker.
func replay(ctx context.Context, sys *system, w worker, n int) (*phase, error) {
	ph, err := measure(ctx, sys, []worker{w}, func(done int, _ time.Time) bool { return done >= n })
	if err != nil {
		return nil, err
	}
	if _, failed := ph.attempted(); failed > 0 {
		return nil, fmt.Errorf("%d of %d replayed operations failed: %v", failed, n, ph.logs[0].firstErr)
	}
	return ph, nil
}

// typicalInside estimates the time the system spent on a phase's
// operations as each class's count times its median, so that one stall
// (a checkpoint, a collection) does not decide the comparison of two
// replays.
func (p *phase) typicalInside() (ns float64) {
	for c := opClass(0); c < numClasses; c++ {
		d := p.durs(c)
		ns += float64(len(d)) * medianNs(d)
	}
	return ns
}

func tracedPass(ctx context.Context, cfg runConfig, sys *system, res *result) error {
	m := res.metrics
	n := cfg.spec.ReplayOps
	trees, err := workloadTrees(ctx, sys)
	if err != nil {
		return err
	}

	// Counted replay, tracing off.
	w, err := sys.addWorker(writerCounted, writerCounted)
	if err != nil {
		return err
	}
	before := treeStats(trees)
	counted, err := replay(ctx, sys, w, n)
	if err != nil {
		return err
	}
	after := treeStats(trees)
	ops := float64(n)
	c := func(name string) float64 { return float64(counted.counters[name]) }
	m["dbt.node_reads_per_op"] = float64(after.NodeReads-before.NodeReads) / ops
	m["dbt.cache_hits_per_descent"] = ratio(float64(after.CacheHits-before.CacheHits), float64(after.Descents-before.Descents))
	m["dbt.backdowns_per_kop"] = 1000 * float64(after.BackDowns-before.BackDowns) / ops
	m["dbt.splits_per_kop"] = 1000 * float64(after.SplitsDone-before.SplitsDone) / ops
	m["dbt.split_conflicts_per_kop"] = 1000 * float64(after.SplitConflict-before.SplitConflict) / ops
	m["dbt.evictions"] = float64(after.Evictions - before.Evictions)
	m["kvserver.reads_per_op"] = c("reads") / ops
	m["kvserver.commits_per_op"] = (c("commits") + c("fast_commits")) / ops
	m["kvclient.rpcs_per_op"] = (c("reads") + c("prepares") + c("commits") + c("fast_commits") + c("aborts")) / ops
	m["kvclient.twopc_share"] = ratio(c("commits"), c("commits")+c("fast_commits"))

	// Traced replay of the same operations.
	tr := newTracer(16 * n)
	w, err = sys.addWorker(writerTraced, writerCounted)
	if err != nil {
		return err
	}
	w.setTrace(tr)
	traced, err := replay(ctx, sys, w, n)
	if err != nil {
		return err
	}
	res.attempted += 2 * n
	m["trace.overhead_share"] = 1 - ratio(counted.typicalInside(), traced.typicalInside())

	// Shadow calls for every statement of the traced replay.
	sh, err := newShadower(ctx, sys, tr)
	if err != nil {
		return err
	}
	defer sh.close()
	for _, rec := range tr.stmts {
		sh.shadow(ctx, rec)
	}
	if sh.failed > len(tr.stmts)/20 {
		return fmt.Errorf("%d shadow calls failed for %d statements", sh.failed, len(tr.stmts))
	}

	stmts := durations(tr.spans, "sql.stmt")
	rows := 0
	for _, s := range tr.spans {
		rows += s.Rows
	}
	m["sql.stmts_per_op"] = float64(len(stmts)) / ops
	m["sql.rows_per_stmt"] = ratio(float64(rows), float64(len(stmts)))
	m["sql.stmt_us"] = medianNs(stmts) / 1e3
	m["sql.self_us"] = medianNs(selfTimes(tr.spans, "sql.stmt")) / 1e3
	m["dbt.get_us"] = medianNs(durations(tr.spans, "dbt.get")) / 1e3
	m["dbt.put_us"] = medianNs(durations(tr.spans, "dbt.put")) / 1e3
	m["dbt.scan_us"] = medianNs(durations(tr.spans, "dbt.scan")) / 1e3

	// Probes.
	if err := parseProbe(tr, workloadQueries(cfg.spec), m); err != nil {
		return err
	}
	if err := coldGetProbe(ctx, sys, tr, m); err != nil {
		return err
	}
	if err := clusterProbes(ctx, sys, tr, m); err != nil {
		return err
	}
	if err := localProbes(tr, cfg.outDir, m); err != nil {
		return err
	}
	// A layer's self time from the layer below: a cached descent is one
	// leaf read, a leaf read is one round trip.
	m["dbt.self_us"] = max(0, m["dbt.get_us"]-m["kvclient.read_us"])
	m["kvclient.self_us"] = max(0, m["kvclient.read_us"]-m["rpc.ping_us"])
	m["baseline.sql_over_rawkv"] = ratio(m["sql.stmt_us"], m["baseline.rawkv_get_us"])

	return writeSpans(tracePath(cfg.outDir, cfg.spec.Name), tr.spans)
}
