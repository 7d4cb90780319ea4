package sql

import (
	"yesquel/internal/clock"
	"yesquel/internal/kv/kvclient"
)

// BeginAt opens db's explicit transaction at snap, as BEGIN does at the
// current time: tests compare sessions at one snapshot with it.
func (db *DB) BeginAt(snap clock.Timestamp) { db.tx = db.c.BeginAt(snap) }

// Tx is db's explicit transaction, nil outside BEGIN … COMMIT.
func (db *DB) Tx() *kvclient.Tx { return db.tx }
