// Command benchmark is the repository's benchmark: four SQL workloads
// against a Yesquel cluster in a separate process over loopback TCP,
// end-to-end metrics measured with tracing off, and a traced pass that
// attributes time to each layer. See README.md.
//
//	go run -C benchmark yesquel/benchmark                       # all four workloads, both passes
//	go run -C benchmark yesquel/benchmark --workload wiki --seed 3 --seconds 10 --trace 0
//	go run -C benchmark yesquel/benchmark -repeat 5             # spread of every end-to-end metric
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		role     = flag.String("role", "", "internal: \"servers\" runs the server process")
		topology = flag.String("topology", "", "internal: topology of the server process")
		walDir   = flag.String("waldir", "", "internal: directory of the server process's write-ahead logs")

		workload = flag.String("workload", "", "workload to run (default: all four, both passes)")
		seed     = flag.Int64("seed", 1, "seeds every generator")
		seconds  = flag.Float64("seconds", runSeconds, "length of the measured window")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, traced pass")
		repeat   = flag.Int("repeat", 0, "run the end-to-end pass N times per workload and report the spread")
		smoke    = flag.Bool("smoke", false, "tiny data sets, for the end-to-end test")
		outDir   = flag.String("out", "out", "directory for trace files and temporary logs")
		emit     = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()

	if *role == "servers" {
		if err := runServers(*topology, *walDir); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark servers:", err)
			os.Exit(1)
		}
		return
	}
	if *emit {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(buildManifest())
		return
	}
	killChildrenOnSignal()
	opts := options{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), smoke: *smoke, outDir: *outDir}
	var err error
	switch {
	case *repeat > 0:
		err = runRepeat(opts, *repeat)
	case *workload == "":
		err = runSuite(opts)
	default:
		err = runDriver(opts, *workload, *trace != 0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// options are the settings shared by every run of an invocation.
type options struct {
	seed   int64
	window time.Duration
	smoke  bool
	outDir string
}

// config makes the run configuration of one pass of one workload.
func (o options) config(spec workloadSpec, trace bool) runConfig {
	cfg := runConfig{spec: spec, seed: o.seed, window: o.window, trace: trace, outDir: o.outDir, minSamp: 1000, setups: 3}
	if trace {
		cfg.setups = 1 // the traced pass reports no set-up time
	}
	if o.smoke {
		cfg.spec = spec.smoke()
		cfg.minSamp, cfg.setups = 10, 1
	}
	return cfg
}

// errIncorrect is returned after the violations have been printed.
var errIncorrect = fmt.Errorf("outputs are not correct")

// runDriver is the driver's entry: one workload, one pass, and as the
// last line of standard output one JSON object with the metrics.
func runDriver(o options, name string, trace bool) error {
	spec, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	printHeader(o)
	cfg := o.config(spec, trace)
	res, err := runOne(context.Background(), cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	defs := metricDefs(trace)
	printMetrics(spec.Name, defs, res)
	if printViolations(res.bad) {
		return errIncorrect
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.Name] = value{res.metrics[d.Name], d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// metricDefs lists the metrics a pass reports.
func metricDefs(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// runSuite runs every workload: the end-to-end pass, then the traced
// pass, printing every metric by name with its unit.
func runSuite(o options) error {
	printHeader(o)
	incorrect := false
	for _, spec := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runOne(context.Background(), o.config(spec, trace))
			if err != nil {
				return fmt.Errorf("%s: %w", spec.Name, err)
			}
			printMetrics(spec.Name, metricDefs(trace), res)
			incorrect = printViolations(res.bad) || incorrect
		}
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

// runRepeat runs the end-to-end pass n times per workload with the same
// seed and prints, per metric and workload, the median, the quartiles
// and the inter-quartile range as a share of the median. It fails when
// two runs differ by more than the metric's bound.
func runRepeat(o options, n int) error {
	if n < 2 {
		return fmt.Errorf("-repeat needs at least 2 runs")
	}
	printHeader(o)
	var wide []string
	for _, spec := range workloads {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			res, err := runOne(context.Background(), o.config(spec, false))
			if err != nil {
				return fmt.Errorf("%s run %d: %w", spec.Name, i+1, err)
			}
			if printViolations(res.bad) {
				return errIncorrect
			}
			for _, d := range endToEnd {
				values[d.Name] = append(values[d.Name], res.metrics[d.Name])
			}
		}
		fmt.Printf("\n%-14s %-14s %12s %12s %12s %8s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "iqr/med", "max/min", "bound")
		for _, d := range endToEnd {
			v := values[d.Name]
			q1, q2, q3 := quartiles(v)
			s := append([]float64(nil), v...)
			sort.Float64s(s)
			span := ratio(s[len(s)-1]-s[0], s[0])
			fmt.Printf("%-14s %-14s %12.4f %12.4f %12.4f %8.4f %8.4f %6.2f\n", spec.Name, d.Name, q1, q2, q3, relIQR(v), span, d.Bound)
			if span > d.Bound {
				wide = append(wide, fmt.Sprintf("%s on %s: runs differ by %.1f%%, bound %.0f%%", d.Name, spec.Name, 100*span, 100*d.Bound))
			}
		}
	}
	if len(wide) > 0 {
		return fmt.Errorf("runs of the same code differ by more than the bound:\n  %s", strings.Join(wide, "\n  "))
	}
	return nil
}

// printHeader records where and how the numbers were taken.
func printHeader(o options) {
	fmt.Printf("# yesquel benchmark: nproc=%d GOMAXPROCS=%d (the server process's is printed with each run) %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("# commit=%s kernel=%s\n", gitCommit(), kernelRelease())
	fmt.Printf("# seed=%d window=%s workers=%d (closed loop, one process) servers: separate process, loopback TCP\n", o.seed, o.window, numWorkers)
	fmt.Printf("# flush policy: %s; latency is the sandbox's loopback and CPU, not a network's or a device's\n", flushPolicy)
}

func gitCommit() string {
	rev, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	commit := strings.TrimSpace(string(rev))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		commit += "-dirty"
	}
	return commit
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func printMetrics(workload string, defs []metricDef, res *result) {
	fmt.Printf("\n== %s: %d operations attempted, %d failed; latency samples: %d reads, %d writes; client pid %d, server pid %d with GOMAXPROCS=%d ==\n",
		workload, res.attempted, res.failed, res.counts[classRead], res.counts[classWrite], os.Getpid(), res.server.PID, res.server.GOMAXPROCS)
	for _, d := range defs {
		fmt.Printf("%-14s %-32s %14.4f %s\n", workload, d.Name, res.metrics[d.Name], d.Unit)
	}
}

func printViolations(bad *violations) bool {
	if bad.count == 0 {
		return false
	}
	fmt.Printf("INCORRECT: %d violations, the first:\n", bad.count)
	for _, v := range bad.first {
		fmt.Println("  " + v)
	}
	return true
}

// tracePath names the span file of one workload.
func tracePath(outDir, workload string) string {
	return filepath.Join(outDir, "trace-"+workload+".jsonl")
}
