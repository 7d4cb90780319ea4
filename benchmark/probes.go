package main

// Probes: fixed numbers of calls into one layer's public functions,
// timed from here. Those that need a cluster use the run's own, after
// its window; the rest work on private in-process values. Each probe
// reports the median of its calls.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"yesquel/internal/baseline"
	"yesquel/internal/dbt"
	"yesquel/internal/kv"
	"yesquel/internal/kv/kvserver"
	"yesquel/internal/rpc"
	"yesquel/internal/sql"
	"yesquel/internal/wire"
	"yesquel/internal/ycsb"
)

// Iteration counts. Calls that cross the loopback cost about 100us
// here, so a thousand of them is a tenth of a second.
const (
	probeCalls     = 1000
	probeColdCalls = 100
	probeSyncCalls = 100 // fsync per call
	probeLocalRuns = 200 // batches of in-memory calls
	probeLocalSize = 100 // calls per batch
)

// leafCells and the cell sizes make a probe object the size of a DBT
// leaf half full of usertable rows.
const leafCells = 64

func leafKey(i int) []byte   { return []byte(ycsb.KeyName(int64(i))) }
func leafValue(i int) []byte { return rowValue(0, int64(i), 0, 0) }

func newLeaf() *kv.Value {
	v := kv.NewSuper()
	for i := 0; i < leafCells; i++ {
		v.ListAdd(leafKey(i), leafValue(i))
	}
	return v
}

// timeCalls calls f n times, records each call as a probe span, and
// returns the median duration in nanoseconds.
func timeCalls(tr *tracer, name string, n int, f func(i int) error) (float64, error) {
	durs := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		d, err := tr.probe(name, func() error { return f(i) })
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		durs = append(durs, int64(d))
	}
	return medianNs(durs), nil
}

// timeLocal times in-memory calls, too short to time one by one: the
// median over runs of the mean of a batch, in nanoseconds, and the
// allocations per call.
func timeLocal(tr *tracer, name string, f func()) (ns, allocs float64) {
	means := make([]int64, 0, probeLocalRuns)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for r := 0; r < probeLocalRuns; r++ {
		d, _ := tr.probe(name, func() error {
			for i := 0; i < probeLocalSize; i++ {
				f()
			}
			return nil
		})
		means = append(means, int64(d)/probeLocalSize)
	}
	runtime.ReadMemStats(&ms1)
	return medianNs(means), float64(ms1.Mallocs-ms0.Mallocs) / (probeLocalRuns * probeLocalSize)
}

// clusterProbes times kvclient, rpc and the raw key-value baseline
// against the run's cluster.
func clusterProbes(ctx context.Context, sys *system, tr *tracer, m map[string]float64) error {
	kvc := sys.kvc
	us := func(ns float64) float64 { return ns / 1e3 }

	// Leaf-sized objects, eight on slot 0 and one on the last slot.
	leaves := make([]kv.OID, 8)
	tx := kvc.Begin()
	for i := range leaves {
		leaves[i] = kvc.NewOID(0)
		tx.Put(leaves[i], newLeaf())
	}
	far := kvc.NewOID(uint16(kvc.NumServers() - 1))
	tx.Put(far, newLeaf())
	if err := tx.Commit(ctx); err != nil {
		return fmt.Errorf("creating probe objects: %w", err)
	}
	window := func(i int) (from, to []byte) {
		k := leafKey(i % leafCells)
		return k, append(append([]byte(nil), k...), 0)
	}

	// The read a cached descent ends in: a two-cell window of one leaf.
	ns, err := timeCalls(tr, "kvclient.read", probeCalls, func(i int) error {
		tx := kvc.Begin()
		defer tx.Abort()
		from, to := window(i)
		_, _, err := tx.ReadPart(ctx, leaves[0], from, to, 2)
		return err
	})
	if err != nil {
		return err
	}
	m["kvclient.read_us"] = us(ns)

	items := make([]kv.ReadBatchItem, len(leaves))
	if ns, err = timeCalls(tr, "kvclient.readbatch8", probeCalls, func(i int) error {
		tx := kvc.Begin()
		defer tx.Abort()
		from, to := window(i)
		for j, oid := range leaves {
			items[j] = kv.ReadBatchItem{OID: oid, Part: true, From: from, To: to, Max: 2}
		}
		_, err := tx.ReadBatch(ctx, items)
		return err
	}); err != nil {
		return err
	}
	m["kvclient.readbatch8_us"] = us(ns)

	// One-object commit of a one-cell delta: what a row update costs
	// below the tree. Rewriting the same 64 cells keeps the object's size.
	if ns, err = timeCalls(tr, "kvclient.fastcommit", probeCalls, func(i int) error {
		tx := kvc.Begin()
		tx.ListAdd(leaves[0], leafKey(i%leafCells), leafValue(i))
		return tx.Commit(ctx)
	}); err != nil {
		return err
	}
	m["kvclient.fastcommit_us"] = us(ns)

	// The same delta on two servers: prepare and commit on each.
	if kvc.ServerFor(far) != kvc.ServerFor(leaves[0]) {
		if ns, err = timeCalls(tr, "kvclient.twopc", probeCalls, func(i int) error {
			tx := kvc.Begin()
			tx.ListAdd(leaves[0], leafKey(i%leafCells), leafValue(i))
			tx.ListAdd(far, leafKey(i%leafCells), leafValue(i))
			return tx.Commit(ctx)
		}); err != nil {
			return err
		}
		m["kvclient.twopc_us"] = us(ns)
	}

	// rpc: the cheapest method of the kv server, and a 1 KiB echo.
	ping, err := rpc.Dial(sys.proc.Hello.Groups[0][0])
	if err != nil {
		return err
	}
	defer ping.Close()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if ns, err = timeCalls(tr, "rpc.ping", probeCalls, func(int) error {
		_, err := ping.Call(ctx, kv.MethodPing, nil)
		return err
	}); err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	m["rpc.ping_us"] = us(ns)
	m["rpc.allocs_per_call"] = float64(ms1.Mallocs-ms0.Mallocs) / probeCalls

	echo, err := rpc.Dial(sys.proc.Hello.Echo)
	if err != nil {
		return err
	}
	defer echo.Close()
	payload := bytes.Repeat([]byte{'x'}, 1024)
	if ns, err = timeCalls(tr, "rpc.echo1k", probeCalls, func(int) error {
		reply, err := echo.Call(ctx, methodEcho, payload)
		if err == nil && len(reply) != len(payload) {
			err = fmt.Errorf("echo returned %d bytes", len(reply))
		}
		return err
	}); err != nil {
		return err
	}
	m["rpc.echo1k_us"] = us(ns)

	// The NOSQL comparator on the same cluster: one object per key, no
	// tree, no SQL.
	raw := baseline.NewRawKV(kvc)
	if ns, err = timeCalls(tr, "baseline.rawkv_set", probeCalls, func(i int) error {
		return raw.Set(ctx, ycsb.KeyName(int64(i%leafCells)), leafValue(i))
	}); err != nil {
		return err
	}
	m["baseline.rawkv_set_us"] = us(ns)
	if ns, err = timeCalls(tr, "baseline.rawkv_get", probeCalls, func(i int) error {
		_, err := raw.Get(ctx, ycsb.KeyName(int64(i%leafCells)))
		return err
	}); err != nil {
		return err
	}
	m["baseline.rawkv_get_us"] = us(ns)
	return nil
}

// coldGetProbe times a point lookup with the inner-node cache emptied
// first: what a descent costs when every level is fetched.
func coldGetProbe(ctx context.Context, sys *system, tr *tracer, m map[string]float64) error {
	name, key := "usertable", func(i int) []byte {
		return sql.EncodeKey(sql.Text(ycsb.KeyName(int64(i * 97 % sys.spec.Rows))))
	}
	if sys.spec.Mix == 0 {
		name, key = "page", func(i int) []byte { return sql.EncodeKey(sql.Int(int64(i * 97 % sys.spec.Rows))) }
	}
	t, err := table(ctx, sys.kvc, sys.cat, name)
	if err != nil {
		return err
	}
	ns, err := timeCalls(tr, "dbt.get_cold", probeColdCalls, func(i int) error {
		t.Tree.ClearCache()
		tx := sys.kvc.Begin()
		defer tx.Abort()
		return get(ctx, tx, t.Tree, key(i))
	})
	m["dbt.get_cold_us"] = ns / 1e3
	return err
}

// parseProbe times sql.Parse over the workload's statements.
func parseProbe(tr *tracer, queries []string, m map[string]float64) error {
	ns, err := timeCalls(tr, "sql.parse", probeCalls, func(i int) error {
		_, err := sql.Parse(queries[i%len(queries)])
		return err
	})
	m["sql.parse_us"] = ns / 1e3
	return err
}

// localProbes times the wire framing, the kv message codecs and a
// private in-process store.
func localProbes(tr *tracer, tmpDir string, m map[string]float64) error {
	// wire: one 256-byte frame written to and read back from memory.
	payload := bytes.Repeat([]byte{'x'}, 256)
	var buf bytes.Buffer
	m["wire.frame_ns"], _ = timeLocal(tr, "wire.frame", func() {
		buf.Reset()
		wire.WriteFrame(&buf, payload)
		wire.ReadFrame(&buf)
	})

	// kv codecs: the request of a one-delta commit and the response of
	// a point read of a leaf, encoded and decoded.
	commit := &kv.FastCommitReq{TxID: 1, Start: 1, Epoch: 1,
		Ops: []*kv.Op{{Kind: kv.OpListAdd, OID: kv.MakeOID(0, 1), Cell: kv.Cell{Key: leafKey(1), Value: leafValue(1)}}}}
	part := kv.NewSuper()
	part.ListAdd(leafKey(1), leafValue(1))
	read := &kv.ReadPartResp{Found: true, Version: 1, Value: part, Total: leafCells, Clock: 1}
	var codecErr error
	m["kv.codec_ns"], m["kv.codec_allocs"] = timeLocal(tr, "kv.codec", func() {
		if _, err := kv.DecodeFastCommitReq(commit.Encode()); err != nil {
			codecErr = err
		}
		if _, err := kv.DecodeReadPartResp(read.Encode()); err != nil {
			codecErr = err
		}
	})
	if codecErr != nil {
		return fmt.Errorf("kv.codec: %w", codecErr)
	}

	// kvserver: a store of its own, without and with a write-ahead log.
	for _, p := range []struct {
		name  string
		cfg   kvserver.Config
		calls int
	}{
		{"kvserver.fastcommit", kvserver.Config{}, probeCalls},
		{"kvserver.fastcommit_wal", kvserver.Config{LogPath: filepath.Join(tmpDir, "probe-wal.log")}, probeCalls},
		{"kvserver.fastcommit_fsync", kvserver.Config{LogPath: filepath.Join(tmpDir, "probe-fsync.log"), LogSync: true}, probeSyncCalls},
	} {
		if err := storeProbe(tr, p.name, p.cfg, p.calls, m); err != nil {
			return err
		}
	}
	return nil
}

// storeProbe opens a store with cfg, puts a leaf into it and times
// one-delta fast commits on it as name. On the store without a log it
// also times two-phase commits and reads.
func storeProbe(tr *tracer, name string, cfg kvserver.Config, calls int, m map[string]float64) error {
	if cfg.LogPath != "" {
		if err := os.MkdirAll(filepath.Dir(cfg.LogPath), 0o755); err != nil {
			return err
		}
		defer os.Remove(cfg.LogPath)
	}
	st, err := kvserver.OpenStore(nil, cfg)
	if err != nil {
		return err
	}
	defer st.CloseLog()
	oid := kv.MakeOID(0, 1)
	txid := uint64(1)
	if _, err := st.FastCommit(txid, st.Clock().Now(), []*kv.Op{{Kind: kv.OpPut, OID: oid, Value: newLeaf()}}); err != nil {
		return err
	}
	delta := func(i int) []*kv.Op {
		return []*kv.Op{{Kind: kv.OpListAdd, OID: oid, Cell: kv.Cell{Key: leafKey(i % leafCells), Value: leafValue(i)}}}
	}
	ns, err := timeCalls(tr, name, calls, func(i int) error {
		txid++
		_, err := st.FastCommit(txid, st.Clock().Now(), delta(i))
		return err
	})
	if err != nil {
		return err
	}
	m[name+"_us"] = ns / 1e3
	if cfg.LogPath != "" {
		return nil
	}
	if ns, err = timeCalls(tr, "kvserver.prepare_commit", calls, func(i int) error {
		txid++
		ts, err := st.Prepare(txid, st.Clock().Now(), delta(i))
		if err != nil {
			return err
		}
		return st.Commit(txid, ts)
	}); err != nil {
		return err
	}
	m["kvserver.prepare_commit_us"] = ns / 1e3
	var readErr error
	m["kvserver.read_ns"], _ = timeLocal(tr, "kvserver.read", func() {
		if _, _, err := st.Read(oid, st.Clock().Now()); err != nil {
			readErr = err
		}
	})
	return readErr
}

// treeStats sums the counters of a set of tree handles.
func treeStats(trees []*dbt.Tree) dbt.StatsSnapshot {
	var sum dbt.StatsSnapshot
	for _, t := range trees {
		st := t.Stats()
		sum.Descents += st.Descents
		sum.BackDowns += st.BackDowns
		sum.CacheHits += st.CacheHits
		sum.NodeReads += st.NodeReads
		sum.SplitsDone += st.SplitsDone
		sum.SplitConflict += st.SplitConflict
		sum.Evictions += st.Evictions
	}
	return sum
}
