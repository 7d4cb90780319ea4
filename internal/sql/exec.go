package sql

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"yesquel/internal/dbt"
	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
)

// DB is one session of the embedded query processor. A DB is bound to
// one kv client and is intended for use by one goroutine at a time
// (open one DB per worker, as a Web application opens one connection
// per request handler). Multiple DBs over the same or different
// kvclient.Clients compose freely — that is the architecture's point.
type DB struct {
	c   *kvclient.Client
	cat *Catalog

	tx         *kvclient.Tx // non-nil inside BEGIN..COMMIT
	parseCache map[string]parsedEntry

	// guarded names, for the explicit transaction's constraint compares,
	// the tree each compared leaf belongs to (see commitError).
	guarded []guardedLeaf
}

// guardedLeaf is a leaf a constraint compare of the open transaction
// checks, and the tree of the table it guards (see treeOp).
type guardedLeaf struct {
	leaf  kv.OID
	table *TableSchema
	tree  int
}

// Result reports the effect of a statement.
type Result struct {
	RowsAffected int64
}

// Rows is a materialized query result.
type Rows struct {
	Columns []string
	rows    [][]Value
	pos     int
}

// Next advances to the next row; it must be called before the first Row.
func (r *Rows) Next() bool {
	if r.pos >= len(r.rows) {
		return false
	}
	r.pos++
	return true
}

// Row returns the current row after a successful Next.
func (r *Rows) Row() []Value { return r.rows[r.pos-1] }

// Len returns the number of rows.
func (r *Rows) Len() int { return len(r.rows) }

// All returns every row.
func (r *Rows) All() [][]Value { return r.rows }

// NewDB returns a session over the client. treeCfg configures the DBT
// handles this session opens.
func NewDB(c *kvclient.Client, treeCfg dbt.Config) *DB {
	return &DB{c: c, cat: NewCatalog(c, treeCfg)}
}

// maxRetries bounds auto-commit conflict retries. Conflicts come
// in bursts when a hot leaf is being split (structural writes abort
// concurrent deltas by design), so the budget is generous; the backoff
// grows to ~25ms, long enough to ride out a split chain.
const maxRetries = 30

// NewDBWithCatalog returns a session sharing an existing catalog (and
// hence its tree handles, their caches and their splits in progress);
// used to run many sessions per process.
func NewDBWithCatalog(c *kvclient.Client, cat *Catalog) *DB {
	return &DB{c: c, cat: cat}
}

// Catalog exposes the session's catalog.
func (db *DB) Catalog() *Catalog { return db.cat }

// Client exposes the underlying kv client.
func (db *DB) Client() *kvclient.Client { return db.c }

// Close releases catalog handles. It does not close the kv client.
func (db *DB) Close() { db.cat.Close() }

// InTx reports whether an explicit transaction is open.
func (db *DB) InTx() bool { return db.tx != nil }

// Tables lists the database's table schemas (outside any explicit
// transaction: at a fresh snapshot).
func (db *DB) Tables(ctx context.Context) ([]*TableSchema, error) {
	if err := db.cat.Ensure(ctx); err != nil {
		return nil, err
	}
	tx := db.tx
	if tx == nil {
		tx = db.c.Begin()
		defer tx.Abort()
	}
	return db.cat.ListTables(ctx, tx)
}

// Indexes lists the database's index schemas.
func (db *DB) Indexes(ctx context.Context) ([]*IndexSchema, error) {
	if err := db.cat.Ensure(ctx); err != nil {
		return nil, err
	}
	tx := db.tx
	if tx == nil {
		tx = db.c.Begin()
		defer tx.Abort()
	}
	return db.cat.ListIndexes(ctx, tx)
}

// Exec runs a statement that returns no rows.
func (db *DB) Exec(ctx context.Context, query string, args ...Value) (Result, error) {
	res, _, err := db.run(ctx, query, args)
	return res, err
}

// Query runs a statement and returns its rows (empty for non-SELECT).
func (db *DB) Query(ctx context.Context, query string, args ...Value) (*Rows, error) {
	_, rows, err := db.run(ctx, query, args)
	if rows == nil {
		rows = &Rows{}
	}
	return rows, err
}

func (db *DB) run(ctx context.Context, query string, args []Value) (Result, *Rows, error) {
	stmt, _, err := db.parse(query)
	if err != nil {
		return Result{}, nil, err
	}
	return db.runParsed(ctx, stmt, args)
}

func (db *DB) runParsed(ctx context.Context, stmt Stmt, args []Value) (Result, *Rows, error) {
	// Bootstrap the catalog before any snapshot is taken (see Ensure).
	if err := db.cat.Ensure(ctx); err != nil {
		return Result{}, nil, err
	}
	switch stmt.(type) {
	case Begin:
		if db.tx != nil {
			return Result{}, nil, errors.New("sql: transaction already open")
		}
		db.tx = db.c.Begin()
		db.guarded = db.guarded[:0]
		return Result{}, nil, nil
	case Commit:
		if db.tx == nil {
			return Result{}, nil, errors.New("sql: no transaction open")
		}
		tx := db.tx
		db.tx = nil
		if err := tx.Commit(ctx); err != nil {
			return Result{}, nil, db.commitError(err)
		}
		return Result{}, nil, nil
	case Rollback:
		if db.tx == nil {
			return Result{}, nil, errors.New("sql: no transaction open")
		}
		db.tx.Abort()
		db.tx = nil
		return Result{}, nil, nil
	}

	if db.tx != nil {
		// Inside an explicit transaction: no auto-retry (the snapshot is
		// pinned; the application owns conflict handling at COMMIT). A
		// tree another session dropped surfaces, and the next statement
		// reopens the handles.
		res, rows, err := db.runStmt(ctx, db.tx, stmt, args, false)
		if errors.Is(err, dbt.ErrTreeNotFound) {
			db.cat.Close()
		}
		return res, rows, err
	}

	// Auto-commit: one kv transaction per statement, retried on
	// conflict with jittered backoff (splits and write races are
	// expected and transient). The first attempt may stage its writes
	// without reading (blind), and splits, before its commit returns, a
	// leaf the commit filled. When it cannot route them, or a compare of its
	// commit fails (a stale route, a leaf at its hard cap, a taken key),
	// the statement goes to the read path at once, which reads what it
	// needs and names any constraint the statement breaks. The one
	// exception is an UPDATE or DELETE by key whose row was not there: that
	// affected nothing.
	var lastErr error
	blind, reopened := true, false
	for attempt := 0; attempt <= maxRetries; attempt++ {
		tx := db.c.Begin()
		res, rows, err := db.runStmt(ctx, tx, stmt, args, blind)
		if err == nil {
			if cerr := tx.Commit(ctx); cerr == nil {
				return res, rows, nil
			} else {
				err = cerr
			}
		} else {
			tx.Abort()
		}
		var ce *kv.CompareError
		if errors.Is(err, errUnrouted) {
			blind = false
			continue
		} else if errors.As(err, &ce) {
			if ce.Op == kv.OpCmpPresent {
				return Result{}, nil, nil
			}
			if blind {
				blind = false
				continue
			}
			// On the read path a compare fails when a transaction that
			// committed after this one's snapshot changed what it checked:
			// a conflict, which the next attempt reads afresh.
		} else if errors.Is(err, dbt.ErrTreeNotFound) && !reopened {
			// A cached handle names a tree another session's DDL dropped:
			// reopen the handles from the catalog and run once more.
			db.cat.Close()
			reopened = true
			continue
		} else if !errors.Is(err, kv.ErrConflict) {
			return Result{}, nil, err
		}
		lastErr = err
		sleepJitter(attempt)
	}
	return Result{}, nil, fmt.Errorf("sql: giving up after %d conflicts: %w", maxRetries, lastErr)
}

// commitError is what an explicit transaction's failed COMMIT reports: a
// failed constraint compare as the UNIQUE constraint it checked, a failed
// route compare (a split moved a leaf a statement checked) as a conflict
// the application may retry, anything else as it is.
func (db *DB) commitError(err error) error {
	var ce *kv.CompareError
	if !errors.As(err, &ce) {
		return err
	}
	if ce.Op.IsRoute() {
		return fmt.Errorf("%w: %v", kv.ErrConflict, err)
	}
	for _, g := range db.guarded {
		if g.leaf == ce.OID {
			return uniqueViolation(g.table, g.tree)
		}
	}
	return err
}

func sleepJitter(attempt int) {
	base := time.Duration(1<<uint(min(attempt, 8))) * 100 * time.Microsecond
	time.Sleep(base + time.Duration(rand.Int63n(int64(base)+1)))
}

// runStmt runs one statement in tx and marks its end there, so what it
// read is not carried into the transaction's next statement. blind lets
// a write statement stage its writes by routing, without reading (see
// writeRows).
func (db *DB) runStmt(ctx context.Context, tx *kvclient.Tx, stmt Stmt, args []Value, blind bool) (Result, *Rows, error) {
	defer tx.EndStatement()
	switch st := stmt.(type) {
	case CreateTable:
		return Result{}, nil, db.cat.CreateTable(ctx, tx, st)
	case DropTable:
		return Result{}, nil, db.cat.DropTable(ctx, tx, st)
	case CreateIndex:
		return Result{}, nil, db.execCreateIndex(ctx, tx, st)
	case DropIndex:
		return Result{}, nil, db.cat.DropIndex(ctx, tx, st)
	case Insert:
		res, err := db.execInsert(ctx, tx, st, args, blind)
		return res, nil, err
	case Update:
		res, err := db.execUpdate(ctx, tx, st, args, blind)
		return res, nil, err
	case Delete:
		res, err := db.execDelete(ctx, tx, st, args, blind)
		return res, nil, err
	case Select:
		rows, err := db.execSelect(ctx, tx, st, args)
		return Result{}, rows, err
	case Explain:
		rows, err := db.execExplain(ctx, tx, st, args)
		return Result{}, rows, err
	}
	return Result{}, nil, fmt.Errorf("sql: unhandled statement %T", stmt)
}

// rowKeyFor computes the storage key for a full row, allocating a rowid
// when the table has no declared primary key.
func (db *DB) rowKeyFor(table *Table, vals []Value) ([]byte, error) {
	s := table.Schema
	if s.PKCol >= 0 {
		pk := vals[s.PKCol]
		if pk.IsNull() {
			return nil, fmt.Errorf("sql: NULL primary key in %s", s.Name)
		}
		return EncodeKey(pk), nil
	}
	rowid := int64(db.c.NewOID(0).Local())
	return EncodeKey(Int(rowid)), nil
}

// indexEntryKey builds the index-tree key for a row: the encoded column
// value concatenated with the row key (making entries unique per row
// and range-scannable by value prefix).
func indexEntryKey(colVal Value, rowKey []byte) []byte {
	k := EncodeKey(colVal)
	out := make([]byte, 0, len(k)+len(rowKey))
	out = append(out, k...)
	return append(out, rowKey...)
}

// rowWrite is one row's part in a write statement: the row as stored
// (old, under oldKey; nil in an INSERT) and as it will be (new, under
// newKey; nil in a DELETE). An unread old row was not read: the statement
// names it by primary key and needs none of its other columns (see
// unreadRow), so the commit is what checks that it is stored.
type rowWrite struct {
	oldKey, newKey []byte
	old, new       []Value
	unread         bool
}

// A treeOp is one thing a write statement does to one tree of its
// table: tree 0 is the table's own, tree i+1 that of index i.
type treeOp struct {
	kind opKind
	tree int
	key  []byte
	val  []byte // opPut
}

type opKind uint8

const (
	opDelete  opKind = iota // remove key
	opPut                   // store val under key
	opClaim                 // opPut of a key that must be free: a new primary key
	opUnique                // no key with prefix key may exist: a value entering a UNIQUE index
	opReplace               // opPut of a key that must be stored: an unread row rewritten
	opRemove                // opDelete of a key that must be stored: an unread row removed
)

// probeEnd is where the key range an opClaim or opUnique must find
// empty ends: past the one key a claim takes, past every key with the
// prefix an opUnique names.
func (op treeOp) probeEnd() []byte {
	if op.kind == opClaim {
		return append(op.key[:len(op.key):len(op.key)], 0)
	}
	return KeySuccessor(op.key)
}

// treeKey names a key of one of the table's trees.
type treeKey struct {
	tree int
	key  string
}

// writeRows is how every write statement reaches storage, in three
// steps: plan, one read round, stage. Planning lists every operation the
// rows need on the table's tree and on the index trees whose (value, row
// key) entry changes, and asks each tree which leaf read each operation
// will make (dbt's read plans); the reads go out together as one round
// (Tx.Prefetch), where row by row each would have waited for its own.
// Then every constraint is checked before anything is staged, so a
// statement that fails leaves the transaction as it found it; the checks
// see the transaction as it was before the statement plus the
// statement's own plan: a key the statement removes is free, and a key
// two of its rows claim is taken. Staging removes before it adds, so a
// key one row gives up and another takes ends up taken.
//
// Every check is also a constraint compare of the commit (kv "Compare
// ops"): the new primary key, or the UNIQUE value, must still be free at
// the newest version when the transaction commits, which a read at the
// transaction's snapshot cannot promise. The compares are staged after
// the removals and before the additions.
//
// A statement that needs no stored row — an INSERT, whose checks are all
// compares, or an UPDATE or DELETE of an unread row — skips the read
// round and the descents altogether (blind): each operation is staged on
// the leaf the inner-node cache routes it to, with the compares that say
// the route still holds, once per leaf (dbt.Tree.RoutePut, RouteDelete,
// RouteAbsent), and the commit is the statement's one round trip. When the cache
// cannot route every operation, writeRows stages nothing and returns
// errUnrouted; that, or a compare that fails, sends the statement down
// the read path (DB.runParsed).
func (db *DB) writeRows(ctx context.Context, tx *kvclient.Tx, table *Table, writes []rowWrite, blind bool) error {
	s := table.Schema
	tree := func(op treeOp) *dbt.Tree {
		if op.tree == 0 {
			return table.Tree
		}
		return table.IndexTrees[op.tree-1]
	}
	ops := make([]treeOp, 0, len(writes)*(1+len(s.Indexes)))
	for i := range writes {
		w := &writes[i]
		moved := w.old == nil || w.new == nil || !bytes.Equal(w.oldKey, w.newKey)
		if w.old != nil && moved {
			kind := opDelete
			if w.unread {
				kind = opRemove
			}
			ops = append(ops, treeOp{kind: kind, key: w.oldKey})
		}
		if w.new != nil {
			kind := opPut
			switch {
			case moved && s.PKCol >= 0:
				kind = opClaim
			case w.unread:
				kind = opReplace
			}
			ops = append(ops, treeOp{kind: kind, key: w.newKey, val: EncodeRow(w.new)})
		}
		// An index entry is (column value, row key): only the indexes
		// where that pair changed need maintenance. Rewriting the others
		// would cost three descents each to end where it began, and stage
		// writes on a second tree that can turn a one-server commit into
		// a two-phase one.
		for j, is := range s.Indexes {
			if !moved && Compare(w.old[is.ColIdx], w.new[is.ColIdx]) == 0 {
				continue
			}
			if w.old != nil {
				ops = append(ops, treeOp{kind: opDelete, tree: j + 1, key: indexEntryKey(w.old[is.ColIdx], w.oldKey)})
			}
			if w.new != nil {
				v := w.new[is.ColIdx]
				if is.Unique && !v.IsNull() { // SQL: NULLs are exempt from UNIQUE
					ops = append(ops, treeOp{kind: opUnique, tree: j + 1, key: EncodeKey(v)})
				}
				ops = append(ops, treeOp{kind: opPut, tree: j + 1, key: indexEntryKey(v, w.newKey), val: w.newKey})
			}
		}
	}

	if blind {
		var routed dbt.Routed
		routed.Grow(2*len(ops) + 4)
		if !routeOps(&routed, ops, tree) {
			return errUnrouted
		}
		routed.Stage(tx)
		return nil
	}

	plan := make([]kv.ReadBatchItem, 0, len(ops))
	for _, op := range ops {
		if op.kind == opUnique {
			plan = tree(op).PlanScan(plan, tx, dbt.Range{Lo: op.key, Hi: op.probeEnd(), Limit: 1})
		} else {
			plan = tree(op).PlanPoint(plan, op.key)
		}
	}
	if err := tx.Prefetch(ctx, plan); err != nil {
		return err
	}

	var freed, claimed map[treeKey]struct{}
	var guard dbt.Routed
	for _, op := range ops {
		if op.kind != opClaim && op.kind != opUnique {
			continue
		}
		checked := len(guard.Ops())
		holder, err := tree(op).Probe(ctx, tx, op.key, op.probeEnd(), &guard)
		if err != nil {
			return err
		}
		if holder != nil {
			if freed == nil {
				freed = make(map[treeKey]struct{})
				for _, d := range ops {
					if d.kind == opDelete {
						freed[treeKey{d.tree, string(d.key)}] = struct{}{}
					}
				}
			}
			if _, ok := freed[treeKey{op.tree, string(holder)}]; !ok {
				return uniqueViolation(s, op.tree)
			}
		}
		if len(writes) > 1 {
			if claimed == nil {
				claimed = make(map[treeKey]struct{})
			}
			k := treeKey{op.tree, string(op.key)}
			if _, ok := claimed[k]; ok {
				return uniqueViolation(s, op.tree)
			}
			claimed[k] = struct{}{}
		}
		if db.tx != nil {
			for _, c := range guard.Ops()[checked:] {
				if c.Kind == kv.OpCmpAbsent {
					db.guarded = append(db.guarded, guardedLeaf{leaf: c.OID, table: s, tree: op.tree})
				}
			}
		}
	}

	for _, op := range ops {
		if op.kind == opDelete {
			if err := tree(op).Delete(ctx, tx, op.key); err != nil && !errors.Is(err, dbt.ErrKeyNotFound) {
				return err
			}
		}
	}
	guard.Stage(tx)
	for _, op := range ops {
		if op.kind == opPut || op.kind == opClaim {
			if err := tree(op).Put(ctx, tx, op.key, op.val); err != nil {
				return err
			}
		}
	}
	return nil
}

// errUnrouted is writeRows' answer on the blind path when the inner-node
// cache cannot route some operation: nothing was staged, and the
// statement reruns on the read path.
var errUnrouted = errors.New("sql: write not routed by the cache")

// routeOps stages nothing and adds to r, in op order, what stages ops by
// routing alone, or returns false when the cache cannot route some key.
// Each leaf's route compares are made once for the statement (dbt
// "Writes staged by routing"); each op's constraint compare stays just
// before its write, so the statement's own rows check each other too: a
// key two of them claim fails the second claim's compare, which sees the
// first's write.
func routeOps(r *dbt.Routed, ops []treeOp, tree func(treeOp) *dbt.Tree) bool {
	for _, op := range ops {
		ok := false
		switch op.kind {
		case opClaim:
			ok = tree(op).RoutePut(r, op.key, op.val, dbt.Absent)
		case opPut:
			ok = tree(op).RoutePut(r, op.key, op.val, dbt.Any)
		case opReplace:
			ok = tree(op).RoutePut(r, op.key, op.val, dbt.Present)
		case opRemove:
			ok = tree(op).RouteDelete(r, op.key)
		case opUnique:
			ok = tree(op).RouteAbsent(r, op.key, op.probeEnd())
		}
		if !ok {
			return false
		}
	}
	return true
}

// uniqueViolation is the error for a taken key of one of the table's
// trees (see treeOp).
func uniqueViolation(s *TableSchema, tree int) error {
	if tree == 0 {
		return fmt.Errorf("sql: UNIQUE constraint failed: %s.%s", s.Name, s.Cols[s.PKCol].Name)
	}
	is := s.Indexes[tree-1]
	return fmt.Errorf("sql: UNIQUE constraint failed: %s.%s", is.Table, is.Col)
}

func (db *DB) execInsert(ctx context.Context, tx *kvclient.Tx, st Insert, args []Value, blind bool) (Result, error) {
	table, err := db.cat.GetTable(ctx, tx, st.Table)
	if err != nil {
		return Result{}, err
	}
	s := table.Schema

	// Map the statement's column list to schema positions.
	colPos := make([]int, 0, len(st.Cols))
	if len(st.Cols) == 0 {
		for i := range s.Cols {
			colPos = append(colPos, i)
		}
	} else {
		for _, c := range st.Cols {
			i := s.ColIndex(c)
			if i < 0 {
				return Result{}, fmt.Errorf("sql: no such column %s.%s", s.Name, c)
			}
			colPos = append(colPos, i)
		}
	}

	e := &env{params: args}
	writes := make([]rowWrite, 0, len(st.Rows))
	for _, rowExprs := range st.Rows {
		if len(rowExprs) != len(colPos) {
			return Result{}, fmt.Errorf("sql: %d values for %d columns", len(rowExprs), len(colPos))
		}
		vals := make([]Value, len(s.Cols))
		for j, x := range rowExprs {
			v, err := e.eval(x)
			if err != nil {
				return Result{}, err
			}
			cv, err := Coerce(v, s.Cols[colPos[j]].Type)
			if err != nil {
				return Result{}, err
			}
			vals[colPos[j]] = cv
		}
		if err := checkRow(s, vals); err != nil {
			return Result{}, err
		}
		rowKey, err := db.rowKeyFor(table, vals)
		if err != nil {
			return Result{}, err
		}
		writes = append(writes, rowWrite{newKey: rowKey, new: vals})
	}
	if err := db.writeRows(ctx, tx, table, writes, blind); err != nil {
		return Result{}, err
	}
	return Result{RowsAffected: int64(len(writes))}, nil
}

// checkRow enforces, on a row about to be stored, the NOT NULL columns
// (the primary key among them) and, as SQLite does, that an INTEGER
// primary key holds an integer: Coerce keeps a REAL such as 2.5 in an
// INTEGER column, and SQLite's INTEGER PRIMARY KEY is the rowid, which
// holds nothing else.
func checkRow(s *TableSchema, vals []Value) error {
	for i, c := range s.Cols {
		if (c.NotNull || i == s.PKCol) && vals[i].IsNull() {
			return fmt.Errorf("sql: NOT NULL constraint failed: %s.%s", s.Name, c.Name)
		}
	}
	if pk := s.PKCol; pk >= 0 && s.Cols[pk].Type == TypeInt && vals[pk].T != TypeInt {
		return fmt.Errorf("sql: datatype mismatch: INTEGER PRIMARY KEY %s.%s cannot hold %v", s.Name, s.Cols[pk].Name, vals[pk])
	}
	return nil
}

// collectMatches gathers the rows p's one table yields, as the old half
// of a rowWrite each (for UPDATE and DELETE; mutation happens after the
// scan so the scan's iterator does not chase its own writes).
func (db *DB) collectMatches(ctx context.Context, tx *kvclient.Tx, p *stmtPlan) ([]rowWrite, error) {
	var out []rowWrite
	err := db.scanTable(ctx, tx, &p.tables[0], &p.e, func(rowKey []byte, row []Value) (bool, error) {
		out = append(out, rowWrite{oldKey: append([]byte(nil), rowKey...), old: row})
		return true, nil
	})
	return out, err
}

// unreadRow returns, as an unread rowWrite, the one row p names when
// its WHERE is a primary-key equality and nothing else (the key range is
// implied) and its table has no index, whose entries would need the old
// values. The old row holds only the key, all an UPDATE that gives every
// other column without reading any needs of it: the new row is the one
// the read path would write, byte for byte. ok=false means the statement
// must read its rows.
func unreadRow(p *stmtPlan) (w rowWrite, ok bool, err error) {
	t := &p.tables[0]
	s := t.schema
	if t.path.kind != pathPKEq || len(s.Indexes) > 0 {
		return w, false, nil
	}
	ct := s.Cols[s.PKCol].Type
	r, keyed, err := evalKeyRange(&p.e, t.path, ct)
	if err != nil || !keyed || !r.implied {
		return w, false, err
	}
	key, err := p.e.eval(t.path.eq)
	if err != nil {
		return w, false, err
	}
	old := make([]Value, len(s.Cols))
	// An implied range's equality is of the key's class, and the row it
	// names holds the value Coerce makes of it (3.0 names row 3). Where
	// that rounds, an INTEGER beyond 2^53 on a REAL key, the key is no
	// REAL's: the commit finds no row under it.
	old[s.PKCol], err = Coerce(key, ct)
	return rowWrite{oldKey: r.lo, old: old, unread: true}, true, err
}

func (db *DB) execUpdate(ctx context.Context, tx *kvclient.Tx, st Update, args []Value, blind bool) (Result, error) {
	p, err := db.planTables(ctx, tx, &TableRef{Name: st.Table}, nil, st.Where, args)
	if err != nil {
		return Result{}, err
	}
	t := &p.tables[0]
	s := t.schema
	setPos := make([]int, len(st.Set))
	// whole: the SET list gives every column but the key, and reads none,
	// so no stored column of the row is needed.
	given := make([]bool, len(s.Cols))
	whole := true
	for i, set := range st.Set {
		col := s.ColIndex(set.Col)
		if col < 0 {
			return Result{}, fmt.Errorf("sql: no such column %s.%s", s.Name, set.Col)
		}
		d, err := p.e.refDepth(set.E)
		if err != nil {
			return Result{}, err
		}
		setPos[i], given[col] = col, true
		whole = whole && d == 0
	}
	for i := range given {
		whole = whole && (given[i] || i == s.PKCol)
	}
	writes, blind, err := db.matches(ctx, tx, &p, blind && whole)
	if err != nil {
		return Result{}, err
	}
	for i := range writes {
		w := &writes[i]
		t.row = w.old
		w.new = append([]Value(nil), w.old...)
		for i, set := range st.Set {
			v, err := p.e.eval(set.E)
			if err != nil {
				return Result{}, unreadErr(w, err)
			}
			cv, err := Coerce(v, s.Cols[setPos[i]].Type)
			if err != nil {
				return Result{}, unreadErr(w, err)
			}
			w.new[setPos[i]] = cv
		}
		if err := checkRow(s, w.new); err != nil {
			return Result{}, unreadErr(w, err)
		}
		w.newKey = w.oldKey
		if s.PKCol >= 0 && Compare(w.old[s.PKCol], w.new[s.PKCol]) != 0 {
			w.newKey = EncodeKey(w.new[s.PKCol])
		}
	}
	if err := db.writeRows(ctx, tx, t.table, writes, blind); err != nil {
		return Result{}, err
	}
	return Result{RowsAffected: int64(len(writes))}, nil
}

// unreadErr is what an UPDATE reports when computing a row's new values
// fails: for an unread row, which may not be stored at all (and then
// nothing is computed and nothing fails), the read path must decide.
func unreadErr(w *rowWrite, err error) error {
	if w.unread {
		return errUnrouted
	}
	return err
}

func (db *DB) execDelete(ctx context.Context, tx *kvclient.Tx, st Delete, args []Value, blind bool) (Result, error) {
	p, err := db.planTables(ctx, tx, &TableRef{Name: st.Table}, nil, st.Where, args)
	if err != nil {
		return Result{}, err
	}
	writes, blind, err := db.matches(ctx, tx, &p, blind)
	if err != nil {
		return Result{}, err
	}
	if err := db.writeRows(ctx, tx, p.tables[0].table, writes, blind); err != nil {
		return Result{}, err
	}
	return Result{RowsAffected: int64(len(writes))}, nil
}

// matches returns the rows an UPDATE or DELETE planned as p writes. When
// blind — the statement may write without reading, and needs no stored
// column of its rows — that is the one unread row p names by key, if it
// names one (unreadRow); otherwise the rows its scan yields. stillBlind
// reports that writeRows may stage them without reading: only an unread
// row may be.
func (db *DB) matches(ctx context.Context, tx *kvclient.Tx, p *stmtPlan, blind bool) (writes []rowWrite, stillBlind bool, err error) {
	if blind {
		w, ok, err := unreadRow(p)
		if ok || err != nil {
			return []rowWrite{w}, true, err
		}
	}
	writes, err = db.collectMatches(ctx, tx, p)
	return writes, false, err
}

// execCreateIndex creates the index and backfills it from the table, all
// in one transaction.
func (db *DB) execCreateIndex(ctx context.Context, tx *kvclient.Tx, st CreateIndex) error {
	// Hold the pre-DDL table handle for the backfill scan.
	table, err := db.cat.GetTable(ctx, tx, st.Table)
	if err != nil {
		return err
	}
	is, err := db.cat.CreateIndex(ctx, tx, st)
	if err != nil || is == nil {
		return err
	}
	// Backfill: scan the table at this snapshot and stage entries into
	// the new tree. The tree root was staged in tx, so the backfill
	// writes see it and the whole DDL commits atomically.
	idxTree := dbt.OpenUnchecked(db.c, is.TreeID, db.cat.treeCfg)
	cells, err := table.Tree.Scan(ctx, tx, nil, -1)
	if err != nil {
		return err
	}
	for _, cell := range cells {
		vals, err := DecodeRow(cell.Value)
		if err != nil {
			return err
		}
		v := vals[is.ColIdx]
		if err := idxTree.Put(ctx, tx, indexEntryKey(v, cell.Key), cell.Key); err != nil {
			return err
		}
	}
	if is.Unique {
		// Table scans come out in rowKey order, not value order, so
		// duplicates are detected on the freshly built index, where
		// equal values are adjacent. NULLs are exempt (SQL standard).
		idxCells, err := idxTree.Scan(ctx, tx, nil, -1)
		if err != nil {
			return err
		}
		nullPrefix := EncodeKey(Null)
		var prevPrefix []byte
		for _, c := range idxCells {
			prefix := c.Key[:len(c.Key)-len(c.Value)] // strip rowKey suffix
			if bytesCompare(prefix, nullPrefix) == 0 {
				continue
			}
			if prevPrefix != nil && bytesCompare(prefix, prevPrefix) == 0 {
				return fmt.Errorf("sql: UNIQUE constraint failed building index %s", is.Name)
			}
			prevPrefix = append(prevPrefix[:0], prefix...)
		}
	}
	return nil
}
