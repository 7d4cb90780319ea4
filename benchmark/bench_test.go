package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"yesquel/internal/sql"
	"yesquel/internal/wiki"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the smoke test re-executes it as the server process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-role=servers" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestPercentile(t *testing.T) {
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty: got %d", got)
	}
	one := []int64{7}
	for _, p := range []float64{0.01, 0.5, 0.99, 1} {
		if got := percentile(one, p); got != 7 {
			t.Errorf("one sample, p=%v: got %d", p, got)
		}
	}
	hundred := make([]int64, 100) // 1..100
	for i := range hundred {
		hundred[i] = int64(i + 1)
	}
	for p, want := range map[float64]int64{0.5: 50, 0.99: 99, 1: 100, 0.001: 1} {
		if got := percentile(hundred, p); got != want {
			t.Errorf("100 samples, p=%v: got %d, want %d", p, got, want)
		}
	}
	big := make([]int64, 10001) // 0..10000
	for i := range big {
		big[i] = int64(i)
	}
	for p, want := range map[float64]int64{0.5: 5000, 0.99: 9900, 0.999: 9990} {
		if got := percentile(big, p); got != want {
			t.Errorf("10001 samples, p=%v: got %d, want %d", p, got, want)
		}
	}
	if got := medianNs([]int64{9, 1, 5}); got != 5 {
		t.Errorf("median of unsorted: got %v", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("two values: got %v %v %v", q1, q2, q3)
	}
	if got, want := relIQR(v), 5.5/5.5; got != want {
		t.Errorf("relIQR: got %v, want %v", got, want)
	}
	if got := medianFloat([]float64{3, 1, 2}); got != 2 {
		t.Errorf("medianFloat odd: got %v", got)
	}
	if got := medianFloat([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("medianFloat even: got %v", got)
	}
}

func TestCounterDelta(t *testing.T) {
	before := map[string]uint64{"reads": 10, "commits": 5, "restarted": 9}
	after := map[string]uint64{"reads": 25, "commits": 5, "restarted": 3, "new": 4}
	want := map[string]uint64{"reads": 15, "commits": 0, "restarted": 0, "new": 4}
	if got := counterDelta(before, after); !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if ratio(1, 0) != 0 || ratio(6, 3) != 2 {
		t.Error("ratio")
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 100, End: 200}
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one nested child", []span{{Start: 110, End: 150}}, 60},
		{"overlapping children count once", []span{{Start: 110, End: 150}, {Start: 140, End: 170}}, 40},
		{"gap between children stays the parent's", []span{{Start: 100, End: 120}, {Start: 180, End: 200}}, 60},
		{"child sticking out is clipped", []span{{Start: 50, End: 120}, {Start: 190, End: 400}}, 70},
		{"shadow children count by duration", []span{{Start: 900, End: 930, Shadow: true}, {Start: 940, End: 950, Shadow: true}}, 60},
		{"children longer than the parent clamp to 0", []span{{Start: 900, End: 1100, Shadow: true}}, 0},
		{"nested and shadow together", []span{{Start: 100, End: 150}, {Start: 900, End: 960, Shadow: true}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: got %d, want %d", c.name, got, c.want)
		}
	}
	spans := []span{
		{ID: 1, Name: "sql.stmt", Start: 0, End: 100},
		{ID: 2, Name: "dbt.get", Start: 500, End: 530, Parent: 1, Shadow: true},
		{ID: 3, Name: "sql.stmt", Start: 200, End: 260},
	}
	if got := selfTimes(spans, "sql.stmt"); !reflect.DeepEqual(got, []int64{70, 60}) {
		t.Errorf("selfTimes: got %v", got)
	}
	if got := durations(spans, "dbt.get"); !reflect.DeepEqual(got, []int64{30}) {
		t.Errorf("durations: got %v", got)
	}
}

func TestTracerLinksStatementsToOperations(t *testing.T) {
	var none *tracer
	none.beginOp() // the untraced passes run the same code on a nil tracer
	none.stmt(time.Now(), time.Microsecond, 1, sqlRead)
	none.endOp()

	tr := newTracer(8)
	tr.beginOp()
	tr.stmt(tr.epoch.Add(10), 20, 1, sqlRead, sql.Text("k"))
	tr.stmt(tr.epoch.Add(40), 5, 2, sqlScan, sql.Text("k"), sql.Int(2))
	tr.endOp()
	tr.shadow(tr.stmts[1], "dbt.scan", func() error { return nil })
	tr.shadow(tr.stmts[0], "dbt.get", func() error { return fmt.Errorf("skipped") })
	if len(tr.spans) != 4 {
		t.Fatalf("spans: %+v", tr.spans)
	}
	op, first, second, shadow := tr.spans[0], tr.spans[1], tr.spans[2], tr.spans[3]
	if op.Name != "op" || op.End != 45 || first.Parent != op.ID || second.Parent != op.ID || first.Op != 0 {
		t.Errorf("operation and statements: %+v", tr.spans[:3])
	}
	if !shadow.Shadow || shadow.Parent != second.ID || shadow.Op != 0 {
		t.Errorf("shadow: %+v", shadow)
	}
}

func TestRowValue(t *testing.T) {
	v := rowValue(7, 12345, 2, 99)
	if len(v) != 100 {
		t.Fatalf("len %d", len(v))
	}
	k, w, s, ok := parseRowValue(7, v)
	if !ok || k != 12345 || w != 2 || s != 99 {
		t.Errorf("round trip: %d %d %d %v", k, w, s, ok)
	}
	if _, _, _, ok := parseRowValue(8, v); ok {
		t.Error("a value of another seed was accepted")
	}
	v[len(v)-1] ^= 1
	if _, _, _, ok := parseRowValue(7, v); ok {
		t.Error("a damaged value was accepted")
	}
	if _, _, _, ok := parseRowValue(7, []byte("garbage")); ok {
		t.Error("garbage was accepted")
	}
	if n, ok := keyNumber("user000000000042"); !ok || n != 42 {
		t.Errorf("keyNumber: %d %v", n, ok)
	}
}

// opStream renders the first n operations writer 1 issues, as the
// program would receive them.
func opStream(t *testing.T, spec workloadSpec, seed int64, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if spec.Mix == 0 {
		ex := &recordingExec{out: &buf}
		w := wiki.NewWorker(ex, int64(spec.Rows), 0.1, wikiWorkerSeed(seed, 1))
		for i := 0; i < n; i++ {
			if err := w.Step(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	gen, err := ycsbGenerator(spec, seed, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		op := gen.Next()
		fmt.Fprintf(&buf, "%v %d %d\n", op.Kind, op.Key, op.ScanLen)
	}
	return buf.Bytes()
}

// recordingExec is a wiki.Executor that writes down what it is asked
// and answers just enough for the worker to go on.
type recordingExec struct{ out *bytes.Buffer }

func (r *recordingExec) Query(_ context.Context, query string, args ...sql.Value) ([][]sql.Value, error) {
	fmt.Fprintln(r.out, query, args)
	return [][]sql.Value{{sql.Int(1), sql.Int(1)}}, nil
}

func (r *recordingExec) Exec(_ context.Context, query string, args ...sql.Value) error {
	fmt.Fprintln(r.out, query, args)
	return nil
}

func TestSameSeedSameOperations(t *testing.T) {
	for _, spec := range workloads {
		a, b, c := opStream(t, spec, 1, 500), opStream(t, spec, 1, 500), opStream(t, spec, 2, 500)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different operations", spec.Name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same operations", spec.Name)
		}
	}
	if workerSeed(1, 1) == workerSeed(1, 2) || wikiWorkerSeed(1, 1) == wikiWorkerSeed(1, 2) {
		t.Error("two writers share a seed")
	}
	for _, seed := range []int64{0, 1, 1 << 40, -5} {
		if s := wikiWorkerSeed(seed, writerTraced); s <= 0 || s >= 1<<22 {
			t.Errorf("wiki worker seed %d for run seed %d would overflow a revision id", s, seed)
		}
	}
}

// TestManifest checks the metric tables against the limits of the
// benchmark contract and, when BENCHMARK.json is there, against it.
func TestManifest(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	m := buildManifest()
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 || len(m.EndToEnd) < 1 || len(m.EndToEnd) > 16 || len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("counts: %d workloads, %d end-to-end, %d per-layer", len(m.Workloads), len(m.EndToEnd), len(m.PerLayer))
	}
	for _, w := range m.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range m.EndToEnd {
		check(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("%s: unit %q bound %v", d.Name, d.Unit, d.Bound)
		}
		hasSetup = hasSetup || d.Name == "setup_s" && d.Unit == "s" && d.Better == lower
	}
	if !hasSetup {
		t.Error("no setup_s")
	}
	for _, d := range m.PerLayer {
		check(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound != nil || d.Better != lower && d.Better != higher {
			t.Errorf("%s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var onDisk manifest
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, m) {
		t.Error("BENCHMARK.json differs from the tables in metrics.go; regenerate it with -manifest")
	}
}

// TestSmoke runs both passes of every workload end to end on tiny data.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts server processes")
	}
	o := options{seed: 1, window: time.Second, smoke: true, outDir: t.TempDir()}
	for _, spec := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runOne(context.Background(), o.config(spec, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", spec.Name, trace, err)
			}
			if res.bad.count > 0 {
				t.Errorf("%s trace=%v: %v", spec.Name, trace, res.bad.first)
			}
			for _, d := range endToEnd {
				if res.metrics[d.Name] <= 0 {
					t.Errorf("%s trace=%v: %s = %v", spec.Name, trace, d.Name, res.metrics[d.Name])
				}
			}
			if !trace {
				continue
			}
			for _, name := range []string{"sql.stmt_us", "dbt.get_us", "kvclient.read_us", "rpc.ping_us", "kvserver.fastcommit_us", "dbt.node_reads_per_op"} {
				if res.metrics[name] <= 0 {
					t.Errorf("%s: %s = %v", spec.Name, name, res.metrics[name])
				}
			}
			if _, err := os.Stat(tracePath(o.outDir, spec.Name)); err != nil {
				t.Errorf("%s: no trace file: %v", spec.Name, err)
			}
		}
	}
}
