package main

// One run of one workload: set the system up, measure a window with two
// closed-loop workers, verify the final state, and (in the traced pass)
// replay a fixed operation count on one worker with spans and probes.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"yesquel/internal/dbt"
	"yesquel/internal/kv/kvclient"
	"yesquel/internal/sql"
	"yesquel/internal/wiki"
	"yesquel/internal/ycsb"
)

// numWorkers is the closed loop's client count: Web-application threads
// that each issue a statement and wait for the reply. It equals the
// reference box's core count; more would only queue on the CPU.
const numWorkers = 2

// Writer numbers. 0 is the loader; the window's workers come first,
// then the two single-worker replays of the traced pass.
const (
	writerCounted = numWorkers + 1
	writerTraced  = numWorkers + 2
)

// system is a set-up cluster with loaded data and warmed-up workers.
type system struct {
	spec workloadSpec
	seed int64
	proc *serverProc
	kvc  *kvclient.Client
	cat  *sql.Catalog
	bad  *violations

	workers []worker
	ycsb    []*ycsbWorker // every YCSB writer, for the final-state check
	wiki    []*wikiWorker
}

func (s *system) session() *sql.DB { return sql.NewDBWithCatalog(s.kvc, s.cat) }

// addWorker makes the worker for writer number id on a fresh session,
// issuing the operations of stream number stream.
func (s *system) addWorker(id, stream int) (worker, error) {
	db := s.session()
	if s.spec.Mix == 0 {
		// wiki.Worker derives its revision ids from its seed, so two
		// workers cannot share a stream.
		w := newWikiWorker(db, s.spec, s.seed, id)
		s.wiki = append(s.wiki, w)
		return w, nil
	}
	w, err := newYCSBWorker(db, s.spec, s.seed, id, stream, s.bad)
	if err != nil {
		return nil, err
	}
	s.ycsb = append(s.ycsb, w)
	return w, nil
}

// close stops the clients, then the server process, and waits for it.
func (s *system) close() error {
	if s.cat != nil {
		s.cat.Close()
	}
	if s.kvc != nil {
		s.kvc.Close()
	}
	return s.proc.stop()
}

// setUp starts the server process, creates the schema, loads the data
// and warms the workers up. The returned duration is the run's set-up
// time: child spawn to end of warm-up, with no compilation in it.
func setUp(ctx context.Context, spec workloadSpec, seed int64, tmpRoot string, bad *violations) (*system, time.Duration, error) {
	t0 := time.Now()
	proc, err := startServers(spec.Topology, tmpRoot)
	if err != nil {
		return nil, 0, err
	}
	s := &system{spec: spec, seed: seed, proc: proc, bad: bad}
	fail := func(err error) (*system, time.Duration, error) {
		s.close()
		return nil, 0, err
	}
	if s.kvc, err = kvclient.OpenReplicated(proc.Hello.Groups); err != nil {
		return fail(err)
	}
	// Adopt the slot directory before allocating any object, as
	// cluster.NewClient does.
	dctx, cancel := context.WithTimeout(ctx, time.Second)
	_ = s.kvc.FetchDirectory(dctx, 0) // best effort: acks carry the version too
	cancel()
	s.cat = sql.NewCatalog(s.kvc, dbt.Config{})

	if spec.Mix == 0 {
		err = wiki.Load(ctx, wiki.DBExecutor{DB: s.session()}, spec.Rows, spec.Links)
	} else {
		err = loadUsertable(ctx, s, spec.Rows)
	}
	if err != nil {
		return fail(fmt.Errorf("load: %w", err))
	}
	for id := 1; id <= numWorkers; id++ {
		w, err := s.addWorker(id, id)
		if err != nil {
			return fail(err)
		}
		s.workers = append(s.workers, w)
	}
	logs := runWorkers(ctx, s.workers, func(done int, _ time.Time) bool { return done >= spec.WarmOps })
	for _, l := range logs {
		if l.failed > 0 {
			return fail(fmt.Errorf("warm-up: %d of %d operations failed: %v", l.failed, l.attempted, l.firstErr))
		}
	}
	return s, time.Since(t0), nil
}

// loadBatch is the number of rows one INSERT statement (one
// transaction) carries during the load. A transaction's reads replay
// its staged writes, so the cost of a batch grows with its square;
// eight rows is where the load was fastest.
const loadBatch = 8

// loadUsertable creates the YCSB table and inserts rows 0..n-1 with
// multi-row INSERT statements from numWorkers sessions, each loading a
// contiguous share so that the loaders work on different leaves.
func loadUsertable(ctx context.Context, s *system, n int) error {
	if _, err := s.session().Exec(ctx, usertableSchema); err != nil {
		return err
	}
	batches := (n + loadBatch - 1) / loadBatch
	errs := make([]error, numWorkers)
	var wg sync.WaitGroup
	for l := 0; l < numWorkers; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			db := s.session()
			args := make([]sql.Value, 0, 2*loadBatch)
			for b := l * batches / numWorkers; b < (l+1)*batches/numWorkers; b++ {
				lo, hi := b*loadBatch, min((b+1)*loadBatch, n)
				query := "INSERT INTO usertable VALUES (?, ?)"
				for i := lo + 1; i < hi; i++ {
					query += ", (?, ?)"
				}
				args = args[:0]
				for i := lo; i < hi; i++ {
					args = append(args, sql.Text(ycsb.KeyName(int64(i))), sql.Blob(rowValue(s.seed, int64(i), 0, 0)))
				}
				if _, err := db.Exec(ctx, query, args...); err != nil {
					errs[l] = fmt.Errorf("rows %d-%d: %w", lo, hi-1, err)
					return
				}
			}
		}(l)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// workerLog is what one worker did during a phase. samples holds, per
// class, the time the system took for each successful operation, in
// nanoseconds.
type workerLog struct {
	samples   [numClasses][]int64
	attempted int
	failed    int
	firstErr  error
}

// runWorkers runs every worker in its own goroutine, each issuing its
// next operation as soon as the last one returned (a closed loop), until
// stop says so. stop sees the worker's completed count and the time.
func runWorkers(ctx context.Context, workers []worker, stop func(done int, now time.Time) bool) []workerLog {
	logs := make([]workerLog, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(w worker, log *workerLog) {
			defer wg.Done()
			for c := range log.samples {
				log.samples[c] = make([]int64, 0, 1<<16)
			}
			for !stop(log.attempted, time.Now()) {
				class, dur, err := w.step(ctx)
				log.attempted++
				if err != nil {
					log.failed++
					if log.firstErr == nil {
						log.firstErr = err
					}
					continue
				}
				log.samples[class] = append(log.samples[class], int64(dur))
			}
		}(w, &logs[i])
	}
	wg.Wait()
	return logs
}

// usage is a reading of both processes' resource counters.
type usage struct {
	clientCPUUs int64
	server      serverStats
	mallocs     uint64
	at          time.Time
}

func readUsage(proc *serverProc) (usage, error) {
	st, err := proc.stats()
	if err != nil {
		return usage{}, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu, _ := selfUsage()
	return usage{clientCPUUs: cpu, server: st, mallocs: ms.Mallocs, at: time.Now()}, nil
}

// phase is the outcome of a measured stretch: the workers' logs and the
// change in both processes' counters across it.
type phase struct {
	logs     []workerLog
	elapsed  time.Duration
	before   usage
	after    usage
	counters map[string]uint64 // server counter deltas
}

func (p *phase) ok() int {
	n := 0
	for _, l := range p.logs {
		for _, s := range l.samples {
			n += len(s)
		}
	}
	return n
}

func (p *phase) attempted() (attempted, failed int) {
	for _, l := range p.logs {
		attempted += l.attempted
		failed += l.failed
	}
	return
}

func (p *phase) durs(class opClass) []int64 {
	var out []int64
	for _, l := range p.logs {
		out = append(out, l.samples[class]...)
	}
	return out
}

// clientCPU and serverCPU are the processes' CPU time over the phase,
// in microseconds.
func (p *phase) clientCPU() float64 { return float64(p.after.clientCPUUs - p.before.clientCPUUs) }
func (p *phase) serverCPU() float64 { return float64(p.after.server.CPUUs - p.before.server.CPUUs) }

// measure runs workers until stop and records resource use around them.
func measure(ctx context.Context, s *system, workers []worker, stop func(int, time.Time) bool) (*phase, error) {
	before, err := readUsage(s.proc)
	if err != nil {
		return nil, err
	}
	logs := runWorkers(ctx, workers, stop)
	after, err := readUsage(s.proc)
	if err != nil {
		return nil, err
	}
	return &phase{logs: logs, elapsed: after.at.Sub(before.at), before: before, after: after,
		counters: counterDelta(before.server.Counters, after.server.Counters)}, nil
}

// runConfig is what one invocation asks for.
type runConfig struct {
	spec    workloadSpec
	seed    int64
	window  time.Duration // measured time of the whole run
	trace   bool
	setups  int    // set-ups per run, each measured for window/setups
	outDir  string // trace files and temporary WAL directories go here
	minSamp int    // fewest samples a reported latency class may have
}

// result is one run's outcome.
type result struct {
	metrics   map[string]float64
	counts    [numClasses]int // latency samples behind the metrics
	attempted int
	failed    int
	bad       *violations
	server    serverHello // the last set-up's server process
}

// maxFailedShare aborts a run whose numbers would describe a broken
// system and not a slow one.
const maxFailedShare = 0.05

// runOne performs one run: cfg.setups times over, set the system up,
// measure it for an equal share of the window, verify it and shut it
// down. Each end-to-end metric is the median over the set-ups, so that
// a stretch of seconds during which the sandbox runs slow spoils one
// share and not the run. An error means the run could not be measured
// (and nothing should be reported); correctness violations come back in
// result.bad.
func runOne(ctx context.Context, cfg runConfig) (*result, error) {
	tmpRoot := filepath.Join(cfg.outDir, "tmp")
	defer os.Remove(tmpRoot) // empty once every child has stopped

	res := &result{metrics: map[string]float64{}, bad: &violations{}}
	shares := map[string][]float64{}
	for i := 0; i < cfg.setups; i++ {
		sys, took, err := setUp(ctx, cfg.spec, cfg.seed, tmpRoot, res.bad)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.server = sys.proc.Hello
		share, err := measureSystem(ctx, cfg, sys, res)
		if cerr := sys.close(); err == nil && cerr != nil {
			err = fmt.Errorf("server process: %w", cerr)
		}
		if err != nil {
			return nil, err
		}
		share["setup_s"] = took.Seconds()
		for name, v := range share {
			shares[name] = append(shares[name], v)
		}
	}
	if res.counts[classRead] < cfg.minSamp || cfg.spec.Writes && res.counts[classWrite] < cfg.minSamp {
		return nil, fmt.Errorf("too few samples for a percentile: %d reads, %d writes (need %d)",
			res.counts[classRead], res.counts[classWrite], cfg.minSamp)
	}
	for name, v := range shares {
		res.metrics[name] = medianFloat(v)
	}
	return res, nil
}

// measureSystem measures one set-up system for its share of the window
// and verifies it. It returns the share's end-to-end metrics and adds
// its counts (and, in the traced pass, the per-layer metrics) to res.
func measureSystem(ctx context.Context, cfg runConfig, sys *system, res *result) (map[string]float64, error) {
	deadline := time.Now().Add(cfg.window / time.Duration(cfg.setups))
	win, err := measure(ctx, sys, sys.workers, func(_ int, now time.Time) bool { return !now.Before(deadline) })
	if err != nil {
		return nil, err
	}
	attempted, failed := win.attempted()
	res.attempted += attempted
	res.failed += failed
	if share := ratio(float64(failed), float64(attempted)); share > maxFailedShare {
		return nil, fmt.Errorf("%.1f%% of %d operations failed (first: %v): the numbers would not describe a working system",
			100*share, attempted, win.logs[0].firstErr)
	}
	reads, writes := sortedCopy(win.durs(classRead)), sortedCopy(win.durs(classWrite))
	res.counts[classRead] += len(reads)
	res.counts[classWrite] += len(writes)
	ops := float64(win.ok())
	if ops == 0 {
		return nil, fmt.Errorf("no operation completed in %v", win.elapsed)
	}
	share := map[string]float64{
		"ops_per_s":   ops / win.elapsed.Seconds(),
		"read_p50_us": float64(percentile(reads, 0.50)) / 1e3,
	}
	if cfg.trace {
		m := res.metrics
		m["window.read_p95_us"] = float64(percentile(reads, 0.95)) / 1e3
		m["window.read_p99_us"] = float64(percentile(reads, 0.99)) / 1e3
		m["window.write_p50_us"] = float64(percentile(writes, 0.50)) / 1e3
		m["window.write_p99_us"] = float64(percentile(writes, 0.99)) / 1e3
		m["window.failed_share"] = ratio(float64(failed), float64(attempted))
		windowLayerMetrics(m, win, ops)
		if err := tracedPass(ctx, cfg, sys, res); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
	}
	if err := verify(ctx, sys); err != nil {
		return nil, fmt.Errorf("verification: %w", err)
	}
	return share, nil
}

// windowLayerMetrics derives the per-layer numbers that need the real
// two-worker load: the CPU split, allocation rate, and the server
// counters that depend on concurrency.
func windowLayerMetrics(m map[string]float64, win *phase, ops float64) {
	c := func(name string) float64 { return float64(win.counters[name]) }
	m["window.cpu_us_per_op"] = (win.clientCPU() + win.serverCPU()) / ops
	m["client.cpu_us_per_op"] = win.clientCPU() / ops
	m["client.allocs_per_op"] = float64(win.after.mallocs-win.before.mallocs) / ops
	_, rss := selfUsage()
	m["client.rss_mb"] = float64(rss) / 1024
	m["kvserver.cpu_us_per_op"] = win.serverCPU() / ops
	m["kvserver.rss_mb"] = float64(win.after.server.MaxRSSKB) / 1024
	m["kvserver.conflicts_per_kop"] = 1000 * c("conflicts") / ops
	m["kvserver.read_waits_per_kop"] = 1000 * c("read_waits") / ops
	m["kvserver.mirror_batch_depth"] = ratio(c("mirror_batch_records"), c("mirror_batches"))
	m["kvserver.wal_syncs_per_commit"] = ratio(c("wal_syncs"), c("commits")+c("fast_commits"))
	m["kvserver.checkpoints"] = c("checkpoints")
	m["kvserver.backup_ack_lag"] = float64(win.after.server.AckLag)
}
