package sql

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"yesquel/internal/dbt"
	"yesquel/internal/kv"
	"yesquel/internal/kv/kvclient"
	"yesquel/internal/wire"
)

// The catalog maps table and index names to their schemas and DBT tree
// ids. It lives in a reserved tree (CatalogTreeID), so DDL is just as
// transactional as DML: CREATE TABLE commits the schema row and the
// empty table tree in one distributed transaction.

// CatalogTreeID is the reserved tree id of the catalog.
const CatalogTreeID = 0

// firstUserTreeID is where allocated tree ids start.
const firstUserTreeID = 16

// Catalog key prefixes.
var (
	catKeyNextID = []byte("N")
	catKeyTable  = "T" // "T<name>"
	catKeyIndex  = "I" // "I<name>"
)

// TableSchema describes one table.
type TableSchema struct {
	Name   string
	TreeID uint64
	Cols   []ColDef
	// PKCol is the index into Cols of the declared primary key, or -1
	// when rows are keyed by a hidden rowid.
	PKCol   int
	Indexes []*IndexSchema
}

// IndexSchema describes one secondary index.
type IndexSchema struct {
	Name   string
	Table  string
	TreeID uint64
	Col    string // single-column indexes (the paper's workloads)
	ColIdx int
	Unique bool
}

// ColIndex returns the position of col in the schema, or -1.
func (ts *TableSchema) ColIndex(col string) int {
	for i, c := range ts.Cols {
		if c.Name == col {
			return i
		}
	}
	return -1
}

// Each catalog row describes its layout once, as a wire method that
// hands each field in order to a wire.Codec, which runs it to encode the
// row and to decode it (wire.Encode, wire.Decode): a decoded column count
// is bounded by the bytes left to hold the columns.

// errCorruptCatalog is what a catalog row that does not decode reports.
var errCorruptCatalog = errors.New("sql: corrupt catalog row")

func (ts *TableSchema) wire(c *wire.Codec) {
	c.String(&ts.Name)
	c.Uvarint(&ts.TreeID)
	pk := uint64(ts.PKCol + 1) // 0: keyed by a hidden rowid
	c.Uvarint(&pk)
	wire.Slice(c, &ts.Cols, minColSize)
	for i := range ts.Cols {
		ts.Cols[i].wire(c)
	}
	if c.Decoding() {
		if ts.PKCol = int(pk) - 1; pk > uint64(len(ts.Cols)) {
			c.Fail(fmt.Errorf("%w: primary key %d of %d columns", errCorruptCatalog, pk, len(ts.Cols)))
		}
	}
}

func (cd *ColDef) wire(c *wire.Codec) {
	c.String(&cd.Name)
	t := byte(cd.Type)
	c.Byte(&t)
	c.Bool(&cd.PrimaryKey)
	c.Bool(&cd.NotNull)
	if c.Decoding() {
		cd.Type = Type(t)
	}
}

// minColSize is the fewest bytes a column takes.
var minColSize = wire.Size(&ColDef{}, (*ColDef).wire)

func (is *IndexSchema) wire(c *wire.Codec) {
	c.String(&is.Name)
	c.String(&is.Table)
	c.Uvarint(&is.TreeID)
	c.String(&is.Col)
	col := uint64(is.ColIdx)
	c.Uvarint(&col)
	c.Bool(&is.Unique)
	if c.Decoding() {
		is.ColIdx = int(col)
	}
}

// scanCatalog returns the rows of one catalog namespace (catKeyTable or
// catKeyIndex) in name order, decoded by fields, as tx sees them.
func scanCatalog[M any](ctx context.Context, tx *kvclient.Tx, ct *dbt.Tree, prefix string, fields func(*M, *wire.Codec)) ([]*M, error) {
	var out []*M
	it := ct.NewIterator(ctx, tx, dbt.Range{Lo: []byte(prefix), Hi: []byte{prefix[0] + 1}})
	for ; it.Valid(); it.Next() {
		m, err := wire.Decode(it.Value(), errCorruptCatalog, fields)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, it.Err()
}

// Table is a runtime handle: schema plus open tree handles.
type Table struct {
	Schema *TableSchema
	Tree   *dbt.Tree
	// IndexTrees is parallel to Schema.Indexes.
	IndexTrees []*dbt.Tree
	// hints is parallel to Schema.Indexes too.
	hints []indexHints
}

// indexHints remembers, for one index, the row keys each value yielded
// the last time a session looked it up, so that the next lookup of that
// value can ask for those rows in the same read round as the index
// (scanTable). It is the inner-node cache's bargain one level up (see
// dbt's nodeCache): an entry may be arbitrarily stale — another client
// moved the row, this one deleted it — because nothing is ever answered
// from it. The rows a lookup returns are the ones the index names at its
// snapshot; a wrong hint costs reads nobody uses, never a wrong row, and
// is replaced by what the lookup found. So it needs no coherence, lives
// with the handle (Catalog.Invalidate drops both), and is bounded the way
// that cache is: admitting a value past maxIndexHints evicts a random
// resident one.
type indexHints struct {
	mu   sync.RWMutex
	rows map[string][][]byte // encoded index value -> row keys; a stored slice is never modified
}

// maxIndexHints bounds one index's hints. A hint is a value and a few
// row keys, some tens of bytes.
const maxIndexHints = 4096

// get returns the row keys remembered for value (shared: read only).
func (h *indexHints) get(value []byte) [][]byte {
	h.mu.RLock()
	rows := h.rows[string(value)]
	h.mu.RUnlock()
	return rows
}

// put makes rows (copied) the hint for value; none forgets the value.
// Lookups mostly find what they found before, which takes the read lock
// only.
func (h *indexHints) put(value []byte, rows [][]byte) {
	if slices.EqualFunc(h.get(value), rows, bytes.Equal) {
		return
	}
	var own [][]byte
	if len(rows) > 0 {
		n := 0
		for _, r := range rows {
			n += len(r)
		}
		buf := make([]byte, 0, n)
		own = make([][]byte, len(rows))
		for i, r := range rows {
			buf = append(buf, r...)
			own[i] = buf[len(buf)-len(r) : len(buf) : len(buf)]
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if own == nil {
		delete(h.rows, string(value))
		return
	}
	if h.rows == nil {
		h.rows = make(map[string][][]byte)
	}
	if _, resident := h.rows[string(value)]; !resident {
		for len(h.rows) >= maxIndexHints {
			for victim := range h.rows {
				delete(h.rows, victim)
				break
			}
		}
	}
	h.rows[string(value)] = own
}

// Catalog caches schemas and open tree handles for one client. Schemas
// are invalidated on DDL through this catalog; concurrent DDL from
// other clients is detected lazily (a vanished tree surfaces as
// ErrTreeNotFound and drops the cache entry).
type Catalog struct {
	c       *kvclient.Client
	treeCfg dbt.Config

	mu     sync.RWMutex
	cat    *dbt.Tree // catalog tree handle
	tables map[string]*Table
}

// NewCatalog returns a catalog for the client. treeCfg configures the
// DBT handles the catalog opens (tests use small MaxCells).
func NewCatalog(c *kvclient.Client, treeCfg dbt.Config) *Catalog {
	return &Catalog{c: c, treeCfg: treeCfg, tables: make(map[string]*Table)}
}

// Close drops the table handles, which the next statement reopens. A
// tree handle owns no goroutine, so there is nothing to stop.
func (cat *Catalog) Close() {
	cat.mu.Lock()
	defer cat.mu.Unlock()
	cat.tables = make(map[string]*Table)
}

// Ensure bootstraps the catalog tree. It must run before a statement's
// transaction takes its snapshot: creating the tree commits in its own
// transaction, and a snapshot taken earlier would not see the root.
func (cat *Catalog) Ensure(ctx context.Context) error {
	_, err := cat.catalogTree(ctx)
	return err
}

// catalogTree opens (or creates) the catalog tree.
func (cat *Catalog) catalogTree(ctx context.Context) (*dbt.Tree, error) {
	cat.mu.RLock()
	t := cat.cat
	cat.mu.RUnlock()
	if t != nil {
		return t, nil // every statement of every session passes here (Ensure)
	}
	cat.mu.Lock()
	defer cat.mu.Unlock()
	return cat.catalogTreeLocked(ctx)
}

func (cat *Catalog) catalogTreeLocked(ctx context.Context) (*dbt.Tree, error) {
	if cat.cat != nil {
		return cat.cat, nil
	}
	t, err := dbt.Open(ctx, cat.c, CatalogTreeID, cat.treeCfg)
	if errors.Is(err, dbt.ErrTreeNotFound) {
		t, err = dbt.Create(ctx, cat.c, CatalogTreeID, cat.treeCfg)
		// A concurrent bootstrap can beat us; fall back to Open.
		if err != nil {
			t, err = dbt.Open(ctx, cat.c, CatalogTreeID, cat.treeCfg)
		}
	}
	if err != nil {
		return nil, err
	}
	cat.cat = t
	return t, nil
}

// allocTreeID transactionally allocates n fresh tree ids within tx.
func (cat *Catalog) allocTreeID(ctx context.Context, tx *kvclient.Tx, n uint64) (uint64, error) {
	ct, err := cat.catalogTree(ctx)
	if err != nil {
		return 0, err
	}
	var next uint64 = firstUserTreeID
	raw, err := ct.Get(ctx, tx, catKeyNextID)
	if err == nil {
		vals, derr := DecodeRow(raw)
		if derr != nil || len(vals) != 1 {
			return 0, fmt.Errorf("sql: corrupt tree-id counter")
		}
		next = uint64(vals[0].I)
	} else if !errors.Is(err, dbt.ErrKeyNotFound) {
		return 0, err
	}
	if err := ct.Put(ctx, tx, catKeyNextID, EncodeRow([]Value{Int(int64(next + n))})); err != nil {
		return 0, err
	}
	return next, nil
}

// GetTable returns the runtime handle for name, reading the catalog at
// tx's snapshot on a cache miss.
func (cat *Catalog) GetTable(ctx context.Context, tx *kvclient.Tx, name string) (*Table, error) {
	cat.mu.RLock()
	t, ok := cat.tables[name]
	cat.mu.RUnlock()
	if ok {
		return t, nil
	}

	ct, err := cat.catalogTree(ctx)
	if err != nil {
		return nil, err
	}
	raw, err := ct.Get(ctx, tx, []byte(catKeyTable+name))
	if errors.Is(err, dbt.ErrKeyNotFound) {
		return nil, fmt.Errorf("sql: no such table: %s", name)
	}
	if err != nil {
		return nil, err
	}
	ts, err := wire.Decode(raw, errCorruptCatalog, (*TableSchema).wire)
	if err != nil {
		return nil, err
	}
	// Load the table's indexes: scan the index namespace and keep those
	// pointing at this table. The catalog is small; the scan is cheap.
	indexes, err := scanCatalog(ctx, tx, ct, catKeyIndex, (*IndexSchema).wire)
	if err != nil {
		return nil, err
	}
	for _, is := range indexes {
		if is.Table == name {
			ts.Indexes = append(ts.Indexes, is)
		}
	}

	// Trees open unchecked: their roots were committed with the schema
	// (or staged in the caller's own transaction for in-tx DDL).
	table := &Table{Schema: ts, hints: make([]indexHints, len(ts.Indexes)),
		Tree: dbt.OpenUnchecked(cat.c, ts.TreeID, cat.treeCfg)}
	for _, is := range ts.Indexes {
		table.IndexTrees = append(table.IndexTrees, dbt.OpenUnchecked(cat.c, is.TreeID, cat.treeCfg))
	}

	cat.mu.Lock()
	defer cat.mu.Unlock()
	if existing, ok := cat.tables[name]; ok {
		return existing, nil
	}
	cat.tables[name] = table
	return table, nil
}

// ListTables returns the schemas of all tables, read at tx's snapshot.
func (cat *Catalog) ListTables(ctx context.Context, tx *kvclient.Tx) ([]*TableSchema, error) {
	ct, err := cat.catalogTree(ctx)
	if err != nil {
		return nil, err
	}
	return scanCatalog(ctx, tx, ct, catKeyTable, (*TableSchema).wire)
}

// ListIndexes returns the schemas of all indexes, read at tx's snapshot.
func (cat *Catalog) ListIndexes(ctx context.Context, tx *kvclient.Tx) ([]*IndexSchema, error) {
	ct, err := cat.catalogTree(ctx)
	if err != nil {
		return nil, err
	}
	return scanCatalog(ctx, tx, ct, catKeyIndex, (*IndexSchema).wire)
}

// Invalidate drops the cached handle for name (after DDL).
func (cat *Catalog) Invalidate(name string) {
	cat.mu.Lock()
	delete(cat.tables, name)
	cat.mu.Unlock()
}

// CreateTable writes the schema and creates the table tree within tx.
func (cat *Catalog) CreateTable(ctx context.Context, tx *kvclient.Tx, st CreateTable) error {
	ct, err := cat.catalogTree(ctx)
	if err != nil {
		return err
	}
	key := []byte(catKeyTable + st.Name)
	if _, err := ct.Get(ctx, tx, key); err == nil {
		if st.IfNotExists {
			return nil
		}
		return fmt.Errorf("sql: table %s already exists", st.Name)
	} else if !errors.Is(err, dbt.ErrKeyNotFound) {
		return err
	}

	ts := &TableSchema{Name: st.Name, PKCol: -1, Cols: st.Cols}
	seen := make(map[string]bool)
	for i, c := range st.Cols {
		if seen[c.Name] {
			return fmt.Errorf("sql: duplicate column %s", c.Name)
		}
		seen[c.Name] = true
		if c.PrimaryKey {
			if ts.PKCol >= 0 {
				return fmt.Errorf("sql: multiple primary keys in %s", st.Name)
			}
			ts.PKCol = i
		}
	}
	id, err := cat.allocTreeID(ctx, tx, 1)
	if err != nil {
		return err
	}
	ts.TreeID = id
	if err := ct.Put(ctx, tx, key, wire.Encode(ts, (*TableSchema).wire)); err != nil {
		return err
	}
	// Create the table tree inside the same transaction: tree roots are
	// plain kv objects, so this is atomic with the schema write.
	return createTreeRootInTx(tx, cat.c, id)
}

// createTreeRootInTx stages the root node of a fresh tree in tx,
// mirroring dbt.Create but inside an enclosing transaction.
func createTreeRootInTx(tx *kvclient.Tx, c *kvclient.Client, id uint64) error {
	root := kv.NewSuper()
	root.Attrs[dbt.AttrHeight] = 0
	root.Attrs[dbt.AttrTree] = id
	root.LowKey = []byte{}
	root.HighKey = nil
	tx.Put(dbt.RootOID(id, c.NumServers()), root)
	return nil
}

// DropTable removes the schema, its indexes, and marks the trees dead.
func (cat *Catalog) DropTable(ctx context.Context, tx *kvclient.Tx, st DropTable) error {
	ct, err := cat.catalogTree(ctx)
	if err != nil {
		return err
	}
	key := []byte(catKeyTable + st.Name)
	raw, err := ct.Get(ctx, tx, key)
	if errors.Is(err, dbt.ErrKeyNotFound) {
		if st.IfExists {
			return nil
		}
		return fmt.Errorf("sql: no such table: %s", st.Name)
	}
	if err != nil {
		return err
	}
	ts, err := wire.Decode(raw, errCorruptCatalog, (*TableSchema).wire)
	if err != nil {
		return err
	}
	if err := ct.Delete(ctx, tx, key); err != nil {
		return err
	}
	tx.Delete(dbt.RootOID(ts.TreeID, cat.c.NumServers()))
	// Drop dependent indexes.
	indexes, err := scanCatalog(ctx, tx, ct, catKeyIndex, (*IndexSchema).wire)
	if err != nil {
		return err
	}
	for _, is := range indexes {
		if is.Table == st.Name {
			if err := ct.Delete(ctx, tx, []byte(catKeyIndex+is.Name)); err != nil {
				return err
			}
			tx.Delete(dbt.RootOID(is.TreeID, cat.c.NumServers()))
		}
	}
	cat.Invalidate(st.Name)
	return nil
}

// CreateIndex writes the index schema, creates its tree, and backfills
// it from the table within tx.
func (cat *Catalog) CreateIndex(ctx context.Context, tx *kvclient.Tx, st CreateIndex) (*IndexSchema, error) {
	ct, err := cat.catalogTree(ctx)
	if err != nil {
		return nil, err
	}
	if len(st.Cols) != 1 {
		return nil, fmt.Errorf("sql: only single-column indexes are supported")
	}
	key := []byte(catKeyIndex + st.Name)
	if _, err := ct.Get(ctx, tx, key); err == nil {
		if st.IfNotExists {
			return nil, nil
		}
		return nil, fmt.Errorf("sql: index %s already exists", st.Name)
	} else if !errors.Is(err, dbt.ErrKeyNotFound) {
		return nil, err
	}
	table, err := cat.GetTable(ctx, tx, st.Table)
	if err != nil {
		return nil, err
	}
	colIdx := table.Schema.ColIndex(st.Cols[0])
	if colIdx < 0 {
		return nil, fmt.Errorf("sql: no such column %s.%s", st.Table, st.Cols[0])
	}
	id, err := cat.allocTreeID(ctx, tx, 1)
	if err != nil {
		return nil, err
	}
	is := &IndexSchema{Name: st.Name, Table: st.Table, TreeID: id, Col: st.Cols[0], ColIdx: colIdx, Unique: st.Unique}
	if err := ct.Put(ctx, tx, key, wire.Encode(is, (*IndexSchema).wire)); err != nil {
		return nil, err
	}
	if err := createTreeRootInTx(tx, cat.c, id); err != nil {
		return nil, err
	}
	cat.Invalidate(st.Table)
	return is, nil
}

// DropIndex removes the index schema and tree root.
func (cat *Catalog) DropIndex(ctx context.Context, tx *kvclient.Tx, st DropIndex) error {
	ct, err := cat.catalogTree(ctx)
	if err != nil {
		return err
	}
	key := []byte(catKeyIndex + st.Name)
	raw, err := ct.Get(ctx, tx, key)
	if errors.Is(err, dbt.ErrKeyNotFound) {
		if st.IfExists {
			return nil
		}
		return fmt.Errorf("sql: no such index: %s", st.Name)
	}
	if err != nil {
		return err
	}
	is, err := wire.Decode(raw, errCorruptCatalog, (*IndexSchema).wire)
	if err != nil {
		return err
	}
	if err := ct.Delete(ctx, tx, key); err != nil {
		return err
	}
	tx.Delete(dbt.RootOID(is.TreeID, cat.c.NumServers()))
	cat.Invalidate(is.Table)
	return nil
}
