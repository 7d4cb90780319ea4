package yesquel_test

// The repo benchmark (benchmark/) is a nested module that the root
// module's `go build ./... && go test ./...` does not compile. This file
// pins, at compile time, every identifier and signature listed under
// "What the benchmark imports" in benchmark/README.md, so a refactor
// that would break the benchmark's build breaks tier-1 first. Keep the
// two lists in step. (The README's last item — the text of
// wiki.Worker's five statements, which benchmark/shadow.go matches on —
// is not a Go identifier and cannot be pinned here.)

import (
	"context"
	"io"
	"net"
	"testing"

	"yesquel/internal/baseline"
	"yesquel/internal/clock"
	"yesquel/internal/cluster"
	"yesquel/internal/dbt"
	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
	"yesquel/internal/kv/kvserver"
	"yesquel/internal/rpc"
	"yesquel/internal/sql"
	"yesquel/internal/wiki"
	"yesquel/internal/wire"
	"yesquel/internal/ycsb"
)

type ctx = context.Context

// cluster
var (
	_ func(int, kvserver.Config) (*cluster.Cluster, error)      = cluster.Start
	_ func(int, int, kvserver.Config) (*cluster.Cluster, error) = cluster.StartReplicated
	_ func(*cluster.Cluster) kvserver.StatsSnapshot             = (*cluster.Cluster).Stats
	_ func(*cluster.Cluster) []kvserver.ServerStats             = (*cluster.Cluster).GroupStats
	_ func(*cluster.Cluster)                                    = (*cluster.Cluster).Close

	_ []*cluster.Group   = cluster.Cluster{}.Groups
	_ []string           = cluster.Group{}.Addrs
	_ *kvserver.Server   = cluster.Group{}.Primary
	_ []*kvserver.Server = cluster.Group{}.Backups
)

// kvserver
var (
	_ = kvserver.Config{LogPath: "", LogSync: false, ReplicationLogMaxRecords: 0}

	_ func(*clock.HLC, kvserver.Config) (*kvserver.Store, error)                                         = kvserver.OpenStore
	_ func(*kvserver.Store, kv.OID, clock.Timestamp) (*kv.Value, clock.Timestamp, error)                 = (*kvserver.Store).Read
	_ func(*kvserver.Store, uint64, clock.Timestamp, []*kv.Op) (clock.Timestamp, error)                  = (*kvserver.Store).FastCommit
	_ func(*kvserver.Store, uint64, clock.Timestamp, []*kv.Op) (clock.Timestamp, error)                  = (*kvserver.Store).Prepare
	_ func(*kvserver.Store, uint64, clock.Timestamp) error                                               = (*kvserver.Store).Commit
	_ func(*kvserver.Store) *clock.HLC                                                                   = (*kvserver.Store).Clock
	_ func(*kvserver.Store) error                                                                        = (*kvserver.Store).CloseLog
	_ func(*kvserver.Store) uint64                                                                       = (*kvserver.Store).ReplSeq
	_ func(*kvserver.Store, uint32, uint32) uint64                                                       = (*kvserver.Store).SlotDigest
	_ func(*kvserver.Server) *kvserver.Store                                                             = (*kvserver.Server).Store
	_ [11]uint64                                                                                         = statsCounters(kvserver.StatsSnapshot{})
	_ func(kvserver.ServerStats) (uint64, []kvserver.ReplicaStatus, uint64, kvserver.StatsSnapshot, int) = serverStatsFields
)

// statsCounters reads the StatsSnapshot fields benchmark/servers.go
// reports.
func statsCounters(st kvserver.StatsSnapshot) [11]uint64 {
	return [11]uint64{st.Reads, st.ReadWaits, st.Prepares, st.Commits, st.FastCommits, st.Aborts,
		st.Conflicts, st.Checkpoints, st.MirrorBatches, st.MirrorBatchRecords, st.WALSyncs}
}

// serverStatsFields reads the ServerStats fields benchmark/servers.go
// computes the ack lag from.
func serverStatsFields(g kvserver.ServerStats) (uint64, []kvserver.ReplicaStatus, uint64, kvserver.StatsSnapshot, int) {
	var acked uint64
	for _, r := range g.Replicas {
		acked = r.AckedSeq
	}
	return g.ReplHead, g.Replicas, acked, g.StatsSnapshot, len(g.Members)
}

// kvclient
var (
	_ func([][]string) (*kvclient.Client, error) = kvclient.OpenReplicated
	_ func(*kvclient.Client, ctx, int) error     = (*kvclient.Client).FetchDirectory
	_ func(*kvclient.Client) *kvclient.Tx        = (*kvclient.Client).Begin
	_ func(*kvclient.Client, uint16) kv.OID      = (*kvclient.Client).NewOID
	_ func(*kvclient.Client) int                 = (*kvclient.Client).NumServers
	_ func(*kvclient.Client, kv.OID) int         = (*kvclient.Client).ServerFor
	_ func(*kvclient.Client) error               = (*kvclient.Client).Close

	_ func(*kvclient.Tx, ctx, kv.OID, []byte, []byte, uint32) (*kv.Value, int, error) = (*kvclient.Tx).ReadPart
	_ func(*kvclient.Tx, ctx, []kv.ReadBatchItem) ([]kv.ReadBatchResult, error)       = (*kvclient.Tx).ReadBatch
	_ func(*kvclient.Tx, kv.OID, *kv.Value)                                           = (*kvclient.Tx).Put
	_ func(*kvclient.Tx, kv.OID, []byte, []byte)                                      = (*kvclient.Tx).ListAdd
	_ func(*kvclient.Tx, ctx) error                                                   = (*kvclient.Tx).Commit
	_ func(*kvclient.Tx)                                                              = (*kvclient.Tx).Abort
)

// sql
var (
	_ func(*kvclient.Client, dbt.Config) *sql.Catalog                   = sql.NewCatalog
	_ func(*kvclient.Client, *sql.Catalog) *sql.DB                      = sql.NewDBWithCatalog
	_ func(string) (sql.Stmt, error)                                    = sql.Parse
	_ func(*sql.DB, string) (*sql.PreparedStmt, error)                  = (*sql.DB).Prepare
	_ func(*sql.DB, ctx, string, ...sql.Value) (*sql.Rows, error)       = (*sql.DB).Query
	_ func(*sql.DB, ctx, string, ...sql.Value) (sql.Result, error)      = (*sql.DB).Exec
	_ func(*sql.PreparedStmt, ctx, ...sql.Value) (*sql.Rows, error)     = (*sql.PreparedStmt).Query
	_ func(*sql.PreparedStmt, ctx, ...sql.Value) (sql.Result, error)    = (*sql.PreparedStmt).Exec
	_ func(*sql.Rows) int                                               = (*sql.Rows).Len
	_ func(*sql.Rows) [][]sql.Value                                     = (*sql.Rows).All
	_ int64                                                             = sql.Result{}.RowsAffected
	_ func(*sql.Catalog, ctx, *kvclient.Tx, string) (*sql.Table, error) = (*sql.Catalog).GetTable
	_ func(*sql.Catalog)                                                = (*sql.Catalog).Close
	_ *dbt.Tree                                                         = sql.Table{}.Tree
	_ []*dbt.Tree                                                       = sql.Table{}.IndexTrees
	_ int64                                                             = sql.Value{}.I
	_ string                                                            = sql.Value{}.S
	_ []byte                                                            = sql.Value{}.B
	_ func(int64) sql.Value                                             = sql.Int
	_ func(string) sql.Value                                            = sql.Text
	_ func([]byte) sql.Value                                            = sql.Blob
	_ func(...sql.Value) []byte                                         = sql.EncodeKey
	_ func([]sql.Value) []byte                                          = sql.EncodeRow
)

// dbt
var (
	_       = dbt.Config{}
	_ error = dbt.ErrKeyNotFound

	_ func(ctx, *kvclient.Client, uint64, dbt.Config) (*dbt.Tree, error) = dbt.Create
	_ func(*dbt.Tree, ctx, *kvclient.Tx, []byte) ([]byte, error)         = (*dbt.Tree).Get
	_ func(*dbt.Tree, ctx, *kvclient.Tx, []byte, []byte) error           = (*dbt.Tree).Put
	_ func(*dbt.Tree, ctx, *kvclient.Tx, []byte, int) ([]kv.Cell, error) = (*dbt.Tree).Scan
	_ func(*dbt.Tree, ctx, *kvclient.Tx, [][]byte) ([][]byte, error)     = (*dbt.Tree).GetBatch
	_ func(*dbt.Tree) dbt.StatsSnapshot                                  = (*dbt.Tree).Stats
	_ func(*dbt.Tree, ctx, *kvclient.Tx) (*dbt.CheckResult, error)       = (*dbt.Tree).Check
	_ func(*dbt.Tree)                                                    = (*dbt.Tree).ClearCache
	_ func(*dbt.Tree)                                                    = (*dbt.Tree).Close
	_ int                                                                = dbt.CheckResult{}.Cells
	_ [7]uint64                                                          = treeCounters(dbt.StatsSnapshot{})
)

// treeCounters reads the dbt.StatsSnapshot fields benchmark/probes.go
// sums.
func treeCounters(st dbt.StatsSnapshot) [7]uint64 {
	return [7]uint64{st.Descents, st.BackDowns, st.CacheHits, st.NodeReads, st.SplitsDone, st.SplitConflict, st.Evictions}
}

// rpc and wire
var (
	_ func(string) (*rpc.Client, error)                      = rpc.Dial
	_ func(*rpc.Client, ctx, string, []byte) ([]byte, error) = (*rpc.Client).Call
	_ func(*rpc.Client) error                                = (*rpc.Client).Close
	_ func() *rpc.Server                                     = rpc.NewServer
	_ func(*rpc.Server, string, rpc.Handler)                 = (*rpc.Server).Register
	_ func(*rpc.Server, net.Listener) error                  = (*rpc.Server).Serve
	_ func(*rpc.Server) error                                = (*rpc.Server).Close
	_ func(io.Writer, []byte) error                          = wire.WriteFrame
	_ func(io.Reader) ([]byte, error)                        = wire.ReadFrame
)

// kv
var (
	_ string = kv.MethodPing
	_ kv.OID = kv.MakeOID(0, 0)
	_        = kv.Cell{Key: nil, Value: nil}
	_        = kv.Op{Kind: kv.OpPut, OID: 0, Value: (*kv.Value)(nil), Cell: kv.Cell{}}
	_        = kv.Op{Kind: kv.OpListAdd}
	_        = kv.ReadBatchItem{OID: 0, Part: false, From: nil, To: nil, Max: 0}
	_        = kv.FastCommitReq{TxID: 0, Start: 0, Ops: nil, Epoch: 0}
	_        = kv.ReadPartResp{Found: false, Version: 0, Value: nil, Total: 0, Clock: 0}

	_ func(uint16, uint64) kv.OID             = kv.MakeOID
	_ func() *kv.Value                        = kv.NewSuper
	_ func(*kv.Value, []byte, []byte)         = (*kv.Value).ListAdd
	_ func(*kv.FastCommitReq) []byte          = (*kv.FastCommitReq).Encode
	_ func([]byte) (*kv.FastCommitReq, error) = kv.DecodeFastCommitReq
	_ func(*kv.ReadPartResp) []byte           = (*kv.ReadPartResp).Encode
	_ func([]byte) (*kv.ReadPartResp, error)  = kv.DecodeReadPartResp
)

// baseline, ycsb, wiki
var (
	_ func(*kvclient.Client) *baseline.RawKV             = baseline.NewRawKV
	_ func(*baseline.RawKV, ctx, string) ([]byte, error) = (*baseline.RawKV).Get
	_ func(*baseline.RawKV, ctx, string, []byte) error   = (*baseline.RawKV).Set

	_ func(ycsb.Workload, int64, int64) (*ycsb.Generator, error) = ycsb.NewGenerator
	_ func(*ycsb.Generator) ycsb.Op                              = (*ycsb.Generator).Next
	_ func(*ycsb.Generator, int64)                               = (*ycsb.Generator).SetInsertBase
	_ func(int64) string                                         = ycsb.KeyName
	_                                                            = ycsb.Op{Kind: ycsb.OpRead, Key: 0, ScanLen: 0}
	_                                                            = [...]ycsb.OpKind{ycsb.OpRead, ycsb.OpUpdate, ycsb.OpInsert, ycsb.OpScan}
	_                                                            = [...]ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadC, ycsb.WorkloadE}
	_ [ycsb.ValueSize]byte

	_ func(ctx, wiki.Executor, int, int) error                = wiki.Load
	_ func(wiki.Executor, int64, float64, int64) *wiki.Worker = wiki.NewWorker
	_ func(*wiki.Worker, ctx) error                           = (*wiki.Worker).Step
	_ uint64                                                  = wiki.Worker{}.Edits
	_ uint64                                                  = wiki.Worker{}.Errors
	_ wiki.Executor                                           = wiki.DBExecutor{DB: (*sql.DB)(nil)}
)

// TestBenchmarkSurfaceCompiles exists so the file is a test: the
// assertions above are checked by the compiler.
func TestBenchmarkSurfaceCompiles(t *testing.T) {}
