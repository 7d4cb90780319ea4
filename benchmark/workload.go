package main

// The four workloads: what they load, the operations their workers
// issue, and the checks every reply must pass. A worker owns one SQL
// session and is used by one goroutine.

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"yesquel/internal/sql"
	"yesquel/internal/wiki"
	"yesquel/internal/ycsb"
)

// opClass splits operations into the two latency classes reported.
type opClass uint8

const (
	classRead  opClass = iota // point read, scan, page view
	classWrite                // insert, update, page edit
	numClasses
)

// workloadSpec is one named workload.
type workloadSpec struct {
	Name     string
	Why      string
	Topology string
	Mix      ycsb.Workload // 0 for wiki
	Rows     int           // usertable rows, or wiki pages
	Links    int           // wiki links per page
	Writes   bool          // the mix has write-class operations
	// WarmOps is the number of operations each worker runs before the
	// window; set-up ends when they are done. ReplayOps is the fixed
	// operation count of the single-worker replays of the traced pass.
	WarmOps   int
	ReplayOps int
}

var workloads = []workloadSpec{
	{
		Name: "ycsb_c_sql", Topology: topoShard2, Mix: ycsb.WorkloadC, Rows: 10000,
		WarmOps: 5000, ReplayOps: 10000,
		Why: "100% zipfian point SELECTs: sql, dbt with cached inner nodes, leaf reads over rpc to Store.Read; no commit, WAL, pipeline or split work - the control for every write-path change",
	},
	{
		Name: "ycsb_e_sql", Topology: topoShard2, Mix: ycsb.WorkloadE, Rows: 10000, Writes: true,
		WarmOps: 1500, ReplayOps: 4000,
		Why: "95% scans of 1-100 rows, 5% inserts: the dbt iterator, scan readahead, batched leaf reads and sql row decoding do the work; the point descent is amortised away",
	},
	{
		Name: "wiki", Topology: topoShard2, Rows: 1000, Links: 5, Writes: true,
		WarmOps: 1000, ReplayOps: 2500,
		Why: "90% three-query page views, 10% edits: the only multi-statement operations, secondary-index maintenance and commits spanning servers (2PC), so coordinator-side changes show here",
	},
	{
		Name: "ycsb_a_repl", Topology: topoQuorum3, Mix: ycsb.WorkloadA, Rows: 10000, Writes: true,
		WarmOps: 2500, ReplayOps: 6000,
		Why: "50% reads, 50% UPDATEs on one rf=3 quorum group: every update crosses the kvserver commit pipeline (lock, stream emit, WAL append, mirror round trip, quorum wait) beside reads on the same primary",
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// smoke shrinks a workload for the end-to-end test.
func (w workloadSpec) smoke() workloadSpec {
	w.Rows = 2000
	if w.Mix == 0 {
		w.Rows = 200
	}
	w.WarmOps, w.ReplayOps = 200, 300
	return w
}

// violations collects correctness failures from every goroutine; the
// run exits non-zero if there are any.
type violations struct {
	mu    sync.Mutex
	count int
	first []string
}

func (v *violations) addf(format string, args ...any) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.count++
	if len(v.first) < 10 {
		v.first = append(v.first, fmt.Sprintf(format, args...))
	}
}

// worker issues one workload's operations on one session.
type worker interface {
	// step performs the next operation and returns its class, the time
	// spent inside the system, and the error the system returned.
	step(ctx context.Context) (opClass, time.Duration, error)
	// setTrace makes the worker record its operations and statements.
	setTrace(tr *tracer)
}

// ---- YCSB over SQL ---------------------------------------------------

const usertableSchema = `CREATE TABLE usertable (k TEXT PRIMARY KEY, v BLOB)`

const (
	sqlRead   = "SELECT v FROM usertable WHERE k = ?"
	sqlScan   = "SELECT k, v FROM usertable WHERE k >= ? LIMIT ?"
	sqlUpdate = "UPDATE usertable SET v = ? WHERE k = ?"
	sqlInsert = "INSERT INTO usertable VALUES (?, ?)"
)

// rowValue is the 100-byte value writer number writer stores under key
// as its seq-th write (the loader is writer 0). The header names the
// write; the filler is a function of the header and the seed, so a
// reader can tell a value that was stored from one that was damaged.
func rowValue(seed, key int64, writer int, seq uint64) []byte {
	out := make([]byte, 0, ycsb.ValueSize)
	out = append(out, 'w')
	out = strconv.AppendInt(out, int64(writer), 10)
	out = append(out, '.')
	out = strconv.AppendUint(out, seq, 10)
	out = append(out, '.')
	out = strconv.AppendInt(out, key, 10)
	out = append(out, '|')
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(key)*0xbf58476d1ce4e5b9 ^ uint64(writer)<<56 ^ seq
	for len(out) < ycsb.ValueSize {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out = append(out, 'a'+byte(x%26))
	}
	return out
}

// parseRowValue checks that v is a value rowValue produces and returns
// the write it names.
func parseRowValue(seed int64, v []byte) (key int64, writer int, seq uint64, ok bool) {
	bar := strings.IndexByte(string(v), '|')
	if bar < 0 || v[0] != 'w' {
		return 0, 0, 0, false
	}
	parts := strings.Split(string(v[1:bar]), ".")
	if len(parts) != 3 {
		return 0, 0, 0, false
	}
	w, err1 := strconv.Atoi(parts[0])
	s, err2 := strconv.ParseUint(parts[1], 10, 64)
	k, err3 := strconv.ParseInt(parts[2], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, 0, 0, false
	}
	if string(rowValue(seed, k, w, s)) != string(v) {
		return 0, 0, 0, false
	}
	return k, w, s, true
}

// keyNumber inverts ycsb.KeyName.
func keyNumber(name string) (int64, bool) {
	if !strings.HasPrefix(name, "user") {
		return 0, false
	}
	n, err := strconv.ParseInt(name[len("user"):], 10, 64)
	return n, err == nil
}

// ycsbWorker runs one YCSB mix as prepared SQL statements.
type ycsbWorker struct {
	id   int // writer number, 1-based
	seed int64
	gen  *ycsb.Generator
	bad  *violations
	tr   *tracer // nil when untraced

	read, scan, update, insert *sql.PreparedStmt

	seq      uint64
	acked    map[int64]uint64 // key -> this writer's last acknowledged seq
	unsure   map[int64]bool   // keys with a write whose outcome is unknown
	inserted int              // acknowledged inserts
}

// insertBase gives each writer a private key space for inserts, above
// every loaded key.
func insertBase(writer int) int64 { return int64(writer) << 40 }

// workerSeed derives the generator seed of one writer from the run's
// seed; distinct writers and distinct run seeds give distinct streams.
func workerSeed(seed int64, writer int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(writer)*0xd1b54a32d192ed03
	x ^= x >> 32
	return int64(x >> 1)
}

// ycsbGenerator makes the operation source of writer number id.
func ycsbGenerator(spec workloadSpec, seed int64, id, stream int) (*ycsb.Generator, error) {
	gen, err := ycsb.NewGenerator(spec.Mix, int64(spec.Rows), workerSeed(seed, stream))
	if err != nil {
		return nil, err
	}
	gen.SetInsertBase(insertBase(id))
	return gen, nil
}

// newYCSBWorker makes writer number id. Its operations come from
// stream number stream: two writers given the same stream issue the
// same operations (with their own values and insert keys).
func newYCSBWorker(db *sql.DB, spec workloadSpec, seed int64, id, stream int, bad *violations) (*ycsbWorker, error) {
	gen, err := ycsbGenerator(spec, seed, id, stream)
	if err != nil {
		return nil, err
	}
	w := &ycsbWorker{id: id, seed: seed, gen: gen, bad: bad,
		acked: make(map[int64]uint64), unsure: make(map[int64]bool)}
	for _, p := range []struct {
		st    **sql.PreparedStmt
		query string
	}{{&w.read, sqlRead}, {&w.scan, sqlScan}, {&w.update, sqlUpdate}, {&w.insert, sqlInsert}} {
		if *p.st, err = db.Prepare(p.query); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *ycsbWorker) setTrace(tr *tracer) { w.tr = tr }

func (w *ycsbWorker) step(ctx context.Context) (opClass, time.Duration, error) {
	op := w.gen.Next()
	key := sql.Text(ycsb.KeyName(op.Key))
	w.tr.beginOp()
	defer w.tr.endOp()
	switch op.Kind {
	case ycsb.OpRead:
		t0 := time.Now()
		rows, err := w.read.Query(ctx, key)
		d := time.Since(t0)
		w.tr.stmt(t0, d, rows.Len(), sqlRead, key)
		if err == nil {
			w.checkRead(op.Key, rows.All())
		}
		return classRead, d, err
	case ycsb.OpScan:
		t0 := time.Now()
		limit := sql.Int(int64(op.ScanLen))
		rows, err := w.scan.Query(ctx, key, limit)
		d := time.Since(t0)
		w.tr.stmt(t0, d, rows.Len(), sqlScan, key, limit)
		if err == nil {
			w.checkScan(op.Key, op.ScanLen, rows.All())
		}
		return classRead, d, err
	case ycsb.OpUpdate:
		w.seq++
		val := rowValue(w.seed, op.Key, w.id, w.seq)
		t0 := time.Now()
		res, err := w.update.Exec(ctx, sql.Blob(val), key)
		d := time.Since(t0)
		w.tr.stmt(t0, d, int(res.RowsAffected), sqlUpdate, sql.Blob(val), key)
		if err != nil {
			w.unsure[op.Key] = true
			return classWrite, d, err
		}
		if res.RowsAffected != 1 {
			w.bad.addf("update of key %d changed %d rows", op.Key, res.RowsAffected)
		}
		w.acked[op.Key] = w.seq
		return classWrite, d, nil
	case ycsb.OpInsert:
		val := rowValue(w.seed, op.Key, w.id, 0)
		t0 := time.Now()
		res, err := w.insert.Exec(ctx, key, sql.Blob(val))
		d := time.Since(t0)
		w.tr.stmt(t0, d, int(res.RowsAffected), sqlInsert, key, sql.Blob(val))
		if err != nil {
			w.unsure[op.Key] = true
			return classWrite, d, err
		}
		w.inserted++
		return classWrite, d, nil
	}
	return classRead, 0, fmt.Errorf("unexpected operation %v", op.Kind)
}

// checkRead: exactly one row; a well-formed value for this key; and if
// this writer wrote it, not an older write than the last acknowledged.
func (w *ycsbWorker) checkRead(key int64, rows [][]sql.Value) {
	if len(rows) != 1 || len(rows[0]) != 1 {
		w.bad.addf("read of key %d returned %d rows", key, len(rows))
		return
	}
	k, writer, seq, ok := parseRowValue(w.seed, rows[0][0].B)
	if !ok || k != key {
		w.bad.addf("read of key %d returned a value no writer stored: %q", key, rows[0][0].B)
		return
	}
	if writer == w.id && seq < w.acked[key] {
		w.bad.addf("read of key %d returned write %d of writer %d after write %d was acknowledged", key, seq, writer, w.acked[key])
	}
}

// checkScan: between 1 and limit rows, keys strictly ascending from the
// bound, each value well formed for its key.
func (w *ycsbWorker) checkScan(start int64, limit int, rows [][]sql.Value) {
	if len(rows) < 1 || len(rows) > limit {
		w.bad.addf("scan from key %d limit %d returned %d rows", start, limit, len(rows))
		return
	}
	prev := ""
	for i, r := range rows {
		name := r[0].S
		if i == 0 && name < ycsb.KeyName(start) || i > 0 && name <= prev {
			w.bad.addf("scan from key %d: row %d has key %q after %q", start, i, name, prev)
			return
		}
		prev = name
		n, ok := keyNumber(name)
		k, _, _, okv := parseRowValue(w.seed, r[1].B)
		if !ok || !okv || k != n {
			w.bad.addf("scan from key %d: row %q holds a value no writer stored", start, name)
			return
		}
	}
}

// ---- wiki ------------------------------------------------------------

// wikiWorker drives wiki.Worker through an executor that times (and,
// in the traced pass, records) every statement.
type wikiWorker struct {
	w    *wiki.Worker
	exec *timedExec
	tr   *tracer
}

// timedExec is the wiki.Executor of one session. inside accumulates the
// time spent in statements of the current operation.
type timedExec struct {
	db     *sql.DB
	tr     *tracer
	inside time.Duration
}

func (e *timedExec) Query(ctx context.Context, query string, args ...sql.Value) ([][]sql.Value, error) {
	t0 := time.Now()
	rows, err := e.db.Query(ctx, query, args...)
	d := time.Since(t0)
	e.inside += d
	e.tr.stmt(t0, d, rows.Len(), query, args...)
	return rows.All(), err
}

func (e *timedExec) Exec(ctx context.Context, query string, args ...sql.Value) error {
	t0 := time.Now()
	res, err := e.db.Exec(ctx, query, args...)
	d := time.Since(t0)
	e.inside += d
	e.tr.stmt(t0, d, int(res.RowsAffected), query, args...)
	return err
}

// wikiWorkerSeed keeps wiki.Worker's seed small (it shifts the seed
// left by 40 bits to make revision ids) and distinct per writer.
func wikiWorkerSeed(seed int64, writer int) int64 {
	return (workerSeed(seed, 0)%(1<<18))*8 + int64(writer)
}

func newWikiWorker(db *sql.DB, spec workloadSpec, seed int64, id int) *wikiWorker {
	ex := &timedExec{db: db}
	return &wikiWorker{exec: ex, w: wiki.NewWorker(ex, int64(spec.Rows), 0.1, wikiWorkerSeed(seed, id))}
}

func (w *wikiWorker) setTrace(tr *tracer) { w.tr, w.exec.tr = tr, tr }

func (w *wikiWorker) step(ctx context.Context) (opClass, time.Duration, error) {
	edits := w.w.Edits
	w.exec.inside = 0
	w.tr.beginOp()
	err := w.w.Step(ctx)
	w.tr.endOp()
	class := classRead
	// A failed operation's class is unknown; it is counted as failed,
	// not timed, so the guess does not matter.
	if w.w.Edits != edits {
		class = classWrite
	}
	return class, w.exec.inside, err
}
