package main

// The server side of the benchmark: a child process holding the whole
// Yesquel cluster, so that the load generator's Go runtime (GC,
// scheduler) and the servers' are separate and their CPU can be told
// apart. The parent talks to it over stdin/stdout, one JSON line per
// message.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"syscall"
	"time"

	"yesquel/internal/cluster"
	"yesquel/internal/kv/kvserver"
	"yesquel/internal/rpc"
)

// Topologies. shard2 is two unreplicated servers; quorum3 is one slot
// replicated three ways with an epoch and quorum leases.
const (
	topoShard2  = "shard2"
	topoQuorum3 = "quorum3"
)

// replicationLogMaxRecords makes every quorum3 member checkpoint when
// its replication log passes 10 000 records (two per commit) and then
// each 5 000 more (the policy keeps half the cap as a tail). A
// checkpoint encodes the whole multi-version state on a goroutine and
// fsyncs it, which takes seconds here; a trigger that arrives meanwhile
// only truncates memory. A set-up emits about 7 900 records, so the
// first trigger falls half a second into every share of the window and
// every share carries one checkpoint's work. With a quarter of this
// value the members checkpoint back to back (ops_per_s falls by a
// quarter) and the work per share flips between one and two checkpoints
// (its inter-quartile range was 12 %); the default, 0, never checkpoints
// and grows without bound.
const replicationLogMaxRecords = 10000

// methodEcho is the probe handler the child registers on a listener of
// its own: it returns its request, so a call costs rpc framing and
// nothing else.
const methodEcho = "bench.echo"

// serverHello is the child's first line.
type serverHello struct {
	Groups     [][]string `json:"groups"` // replica addresses per slot, primary first
	Echo       string     `json:"echo"`   // address of the echo listener
	PID        int        `json:"pid"`
	GOMAXPROCS int        `json:"gomaxprocs"`
}

// serverStats is the child's answer to "stats": the cluster's counters
// (summed over slots), its own CPU time and peak memory.
type serverStats struct {
	Counters map[string]uint64 `json:"counters"`
	AckLag   uint64            `json:"ack_lag"` // max ReplHead-AckedSeq over attached backups
	CPUUs    int64             `json:"cpu_us"`
	MaxRSSKB int64             `json:"max_rss_kb"`
}

// serverDigests is the child's answer to "digests": per slot, a digest
// of every member's current state once the backups' streams have caught
// up with the primary's.
type serverDigests struct {
	Digests [][]uint64 `json:"digests"`
	Drained bool       `json:"drained"`
}

// walConfig is the flush policy of every run: the write-ahead log is
// on, records are appended and written by the flush loop, and nothing
// is fsynced per commit.
func walConfig(dir string) kvserver.Config {
	return kvserver.Config{LogPath: dir, LogSync: false}
}

const flushPolicy = "wal=on fsync-per-commit=off injected-delay=none"

func startCluster(topology, walDir string) (*cluster.Cluster, error) {
	cfg := walConfig(walDir)
	switch topology {
	case topoShard2:
		return cluster.Start(2, cfg)
	case topoQuorum3:
		cfg.ReplicationLogMaxRecords = replicationLogMaxRecords
		return cluster.StartReplicated(1, 3, cfg)
	}
	return nil, fmt.Errorf("unknown topology %q", topology)
}

// runServers is the child's main: start the cluster, say where it
// listens, answer requests until stdin closes. A parent that dies
// closes the pipe, so the child never outlives it.
func runServers(topology, walDir string) error {
	cl, err := startCluster(topology, walDir)
	if err != nil {
		return err
	}
	defer cl.Close()

	echo := rpc.NewServer()
	echo.Register(methodEcho, func(_ context.Context, p []byte) ([]byte, error) { return p, nil })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go echo.Serve(ln)
	defer echo.Close()

	out := json.NewEncoder(os.Stdout)
	hello := serverHello{Echo: ln.Addr().String(), PID: os.Getpid(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, g := range cl.Groups {
		hello.Groups = append(hello.Groups, g.Addrs)
	}
	if err := out.Encode(hello); err != nil {
		return err
	}

	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		var reply any
		switch in.Text() {
		case "stats":
			reply = collectStats(cl)
		case "digests":
			reply = collectDigests(cl)
		default:
			return fmt.Errorf("unknown request %q", in.Text())
		}
		if err := out.Encode(reply); err != nil {
			return err
		}
	}
	return in.Err()
}

func collectStats(cl *cluster.Cluster) serverStats {
	st := cl.Stats()
	out := serverStats{Counters: map[string]uint64{
		"reads":                st.Reads,
		"read_waits":           st.ReadWaits,
		"prepares":             st.Prepares,
		"commits":              st.Commits,
		"fast_commits":         st.FastCommits,
		"aborts":               st.Aborts,
		"conflicts":            st.Conflicts,
		"checkpoints":          st.Checkpoints,
		"mirror_batches":       st.MirrorBatches,
		"mirror_batch_records": st.MirrorBatchRecords,
		"wal_syncs":            st.WALSyncs,
	}}
	for _, g := range cl.GroupStats() {
		for _, r := range g.Replicas {
			if lag := g.ReplHead - r.AckedSeq; g.ReplHead > r.AckedSeq && lag > out.AckLag {
				out.AckLag = lag
			}
		}
	}
	out.CPUUs, out.MaxRSSKB = selfUsage()
	return out
}

// collectDigests waits (up to two seconds) for every backup to reach
// its primary's stream head, then digests every member's current state:
// the newest version of every object (SlotDigest over one route that
// takes every slot). Store.StateDigest would not do: it covers the
// version history, which each member trims by its own clock once a run
// outlasts the ten-second retention.
func collectDigests(cl *cluster.Cluster) serverDigests {
	drained := func() bool {
		for _, g := range cl.Groups {
			head := g.Primary.Store().ReplSeq()
			for _, b := range g.Backups {
				if b.Store().ReplSeq() != head {
					return false
				}
			}
		}
		return true
	}
	deadline := time.Now().Add(2 * time.Second)
	for !drained() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	out := serverDigests{Drained: drained()}
	for _, g := range cl.Groups {
		ds := []uint64{g.Primary.Store().SlotDigest(0, 1)}
		for _, b := range g.Backups {
			ds = append(ds, b.Store().SlotDigest(0, 1))
		}
		out.Digests = append(out.Digests, ds)
	}
	return out
}

// selfUsage returns this process's CPU time (user + system) in
// microseconds and its peak resident set in KiB.
func selfUsage() (cpuUs, maxRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) int64 { return int64(t.Sec)*1e6 + int64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime), int64(ru.Maxrss)
}
