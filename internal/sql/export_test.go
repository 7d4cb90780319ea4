package sql

import (
	"context"

	"yesquel/internal/clock"
	"yesquel/internal/kv/kvclient"
)

// BeginAt opens db's explicit transaction at snap, as BEGIN does at the
// current time: tests compare sessions at one snapshot with it.
func (db *DB) BeginAt(snap clock.Timestamp) { db.tx = db.c.BeginAt(snap) }

// Tx is db's explicit transaction, nil outside BEGIN … COMMIT.
func (db *DB) Tx() *kvclient.Tx { return db.tx }

// StagedOps returns how many ops — compares included — the first attempt
// of query as an auto-commit statement stages: the blind attempt, its
// writes routed by the inner-node cache. Nothing is committed. A
// statement the cache cannot route reports errUnrouted.
func (db *DB) StagedOps(ctx context.Context, query string, args ...Value) (int, error) {
	if err := db.cat.Ensure(ctx); err != nil {
		return 0, err
	}
	stmt, _, err := db.parse(query)
	if err != nil {
		return 0, err
	}
	tx := db.c.Begin()
	defer tx.Abort()
	if _, _, err := db.runStmt(ctx, tx, stmt, args, true); err != nil {
		return 0, err
	}
	return tx.NumWrites(), nil
}
