package main

// The benchmark's metrics, by name. BENCHMARK.json is generated from
// these tables (-manifest) and a test fails when the two disagree.

// metricDef names one metric. Bound is the share of the parent's median
// by which an end-to-end metric may get worse before a change counts as
// a regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the system sees, measured with tracing
// off over the two-worker window. Every one applies to every workload.
// The bounds are the widest the benchmark contract allows: the sandbox's
// speed drifts by up to a fifth between stretches of minutes (README.md,
// "Spread"), which is also why the tail latency and the CPU per operation
// are per-layer metrics and carry no bound.
var endToEnd = []metricDef{
	{"ops_per_s", "op/s", higher, 0.25},
	{"read_p50_us", "us", lower, 0.25},
	{"setup_s", "s", lower, 0.25},
}

// perLayer is printed by the traced pass. The prefix names the layer
// (or "window" for numbers of the whole system that not every workload
// has, so they cannot carry a bound).
var perLayer = []metricDef{
	// Two-worker window of the traced run, tracing off.
	{"window.read_p95_us", "us", lower, 0},
	{"window.read_p99_us", "us", lower, 0},
	{"window.write_p50_us", "us", lower, 0},
	{"window.write_p99_us", "us", lower, 0},
	{"window.failed_share", "ratio", lower, 0},
	{"window.cpu_us_per_op", "us", lower, 0},
	{"client.cpu_us_per_op", "us", lower, 0},
	{"client.allocs_per_op", "count", lower, 0},
	{"client.rss_mb", "MiB", lower, 0},
	{"kvserver.cpu_us_per_op", "us", lower, 0},
	{"kvserver.rss_mb", "MiB", lower, 0},
	{"kvserver.conflicts_per_kop", "count", lower, 0},
	{"kvserver.read_waits_per_kop", "count", lower, 0},
	{"kvserver.mirror_batch_depth", "count", higher, 0},
	{"kvserver.wal_syncs_per_commit", "count", lower, 0},
	{"kvserver.checkpoints", "count", lower, 0},
	{"kvserver.backup_ack_lag", "count", lower, 0},
	// Single-worker replay of a fixed operation count, tracing off:
	// counts per operation.
	{"sql.stmts_per_op", "count", lower, 0},
	{"sql.rows_per_stmt", "count", lower, 0},
	{"dbt.node_reads_per_op", "count", lower, 0},
	{"dbt.cache_hits_per_descent", "count", higher, 0},
	{"dbt.backdowns_per_kop", "count", lower, 0},
	{"dbt.splits_per_kop", "count", lower, 0},
	{"dbt.split_conflicts_per_kop", "count", lower, 0},
	{"dbt.evictions", "count", lower, 0},
	{"kvclient.rpcs_per_op", "count", lower, 0},
	{"kvclient.twopc_share", "ratio", lower, 0},
	{"kvserver.reads_per_op", "count", lower, 0},
	{"kvserver.commits_per_op", "count", lower, 0},
	// Single-worker traced replay of the same operations: medians.
	{"sql.stmt_us", "us", lower, 0},
	{"sql.self_us", "us", lower, 0},
	{"sql.parse_us", "us", lower, 0},
	{"dbt.get_us", "us", lower, 0},
	{"dbt.put_us", "us", lower, 0},
	{"dbt.scan_us", "us", lower, 0},
	{"dbt.self_us", "us", lower, 0},
	{"dbt.get_cold_us", "us", lower, 0},
	{"trace.overhead_share", "ratio", lower, 0},
	// Probes: fixed iteration counts against the same cluster, or
	// against private in-process values; medians.
	{"kvclient.read_us", "us", lower, 0},
	{"kvclient.readbatch8_us", "us", lower, 0},
	{"kvclient.fastcommit_us", "us", lower, 0},
	{"kvclient.twopc_us", "us", lower, 0},
	{"kvclient.self_us", "us", lower, 0},
	{"rpc.ping_us", "us", lower, 0},
	{"rpc.echo1k_us", "us", lower, 0},
	{"rpc.allocs_per_call", "count", lower, 0},
	{"wire.frame_ns", "ns", lower, 0},
	{"kv.codec_ns", "ns", lower, 0},
	{"kv.codec_allocs", "count", lower, 0},
	{"kvserver.read_ns", "ns", lower, 0},
	{"kvserver.fastcommit_us", "us", lower, 0},
	{"kvserver.fastcommit_wal_us", "us", lower, 0},
	{"kvserver.fastcommit_fsync_us", "us", lower, 0},
	{"kvserver.prepare_commit_us", "us", lower, 0},
	{"baseline.rawkv_get_us", "us", lower, 0},
	{"baseline.rawkv_set_us", "us", lower, 0},
	{"baseline.sql_over_rawkv", "ratio", lower, 0},
}

// runSeconds is the window every workload is measured for when the
// caller does not say; BENCHMARK.json records it.
const runSeconds = 9

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"go", "run", "-C", "benchmark", "yesquel/benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &b})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	return m
}
