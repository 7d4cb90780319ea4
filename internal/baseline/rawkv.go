// Package baseline provides the two comparators of the paper's
// evaluation, rebuilt on our own substrate (see DESIGN.md,
// substitutions 2 and 3):
//
//   - RawKV: a "NOSQL client" — direct key-value access with no SQL, no
//     tree, and no cross-key transactions, standing in for Redis in the
//     YCSB comparison. It shares Yesquel's RPC stack and storage
//     server, so the measured gap isolates the cost of Yesquel's
//     query-processing and tree layers rather than codebase
//     differences.
//
//   - CentralSQL: a centralized SQL engine — the full query processor
//     bound to a single server process that executes statements on
//     behalf of thin clients, standing in for MySQL in the Wikipedia
//     comparison. Query processing happens at the server (the opposite
//     of Yesquel's embedded processors), so it saturates as clients are
//     added.
package baseline

import (
	"context"
	"hash/fnv"

	"yesquel/internal/clock"
	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
)

// RawKV is the NOSQL comparator client. Keys are strings hashed to a
// storage server; values are plain byte strings; each operation is a
// single-object, single-server interaction (reads at the latest
// committed version, writes through one-round-trip fast commits).
type RawKV struct {
	c *kvclient.Client
}

// NewRawKV wraps a kv client for raw access.
func NewRawKV(c *kvclient.Client) *RawKV { return &RawKV{c: c} }

// oidFor maps a key to a deterministic OID spread across servers. The
// slot here is only a name: the server that owns it is the slot modulo
// the client's group count (kv.OID.Group).
func (r *RawKV) oidFor(key string) kv.OID {
	h := fnv.New64a()
	h.Write([]byte(key))
	v := h.Sum64()
	slot := uint16(v >> 48)
	return kv.MakeOID(slot, v&((1<<46)-1)) // below the DBT root-id range
}

// Get reads the latest committed value of key.
func (r *RawKV) Get(ctx context.Context, key string) ([]byte, error) {
	tx := r.c.BeginAt(clock.Max)
	defer tx.Abort()
	v, err := tx.Read(ctx, r.oidFor(key))
	if err != nil {
		return nil, err
	}
	return v.Data, nil
}

// Set writes key to value.
func (r *RawKV) Set(ctx context.Context, key string, value []byte) error {
	tx := r.c.Begin()
	tx.Put(r.oidFor(key), kv.NewPlain(value))
	return tx.Commit(ctx)
}

// Delete removes key.
func (r *RawKV) Delete(ctx context.Context, key string) error {
	tx := r.c.Begin()
	tx.Delete(r.oidFor(key))
	return tx.Commit(ctx)
}
