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

func encodeTableSchema(ts *TableSchema) []byte {
	b := wire.NewBuffer(64)
	b.PutString(ts.Name)
	b.PutUvarint(ts.TreeID)
	b.PutVarint(int64(ts.PKCol))
	b.PutUvarint(uint64(len(ts.Cols)))
	for _, c := range ts.Cols {
		b.PutString(c.Name)
		b.PutByte(byte(c.Type))
		b.PutBool(c.PrimaryKey)
		b.PutBool(c.NotNull)
	}
	return b.Bytes()
}

func decodeTableSchema(p []byte) (*TableSchema, error) {
	r := wire.NewReader(p)
	ts := &TableSchema{}
	var err error
	if ts.Name, err = r.String(); err != nil {
		return nil, err
	}
	if ts.TreeID, err = r.Uvarint(); err != nil {
		return nil, err
	}
	pk, err := r.Varint()
	if err != nil {
		return nil, err
	}
	ts.PKCol = int(pk)
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < n; i++ {
		var c ColDef
		if c.Name, err = r.String(); err != nil {
			return nil, err
		}
		t, err := r.Byte()
		if err != nil {
			return nil, err
		}
		c.Type = Type(t)
		if c.PrimaryKey, err = r.Bool(); err != nil {
			return nil, err
		}
		if c.NotNull, err = r.Bool(); err != nil {
			return nil, err
		}
		ts.Cols = append(ts.Cols, c)
	}
	return ts, nil
}

func encodeIndexSchema(is *IndexSchema) []byte {
	b := wire.NewBuffer(64)
	b.PutString(is.Name)
	b.PutString(is.Table)
	b.PutUvarint(is.TreeID)
	b.PutString(is.Col)
	b.PutVarint(int64(is.ColIdx))
	b.PutBool(is.Unique)
	return b.Bytes()
}

func decodeIndexSchema(p []byte) (*IndexSchema, error) {
	r := wire.NewReader(p)
	is := &IndexSchema{}
	var err error
	if is.Name, err = r.String(); err != nil {
		return nil, err
	}
	if is.Table, err = r.String(); err != nil {
		return nil, err
	}
	if is.TreeID, err = r.Uvarint(); err != nil {
		return nil, err
	}
	if is.Col, err = r.String(); err != nil {
		return nil, err
	}
	ci, err := r.Varint()
	if err != nil {
		return nil, err
	}
	is.ColIdx = int(ci)
	if is.Unique, err = r.Bool(); err != nil {
		return nil, err
	}
	return is, nil
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
	ts, err := decodeTableSchema(raw)
	if err != nil {
		return nil, err
	}
	// Load the table's indexes: scan the index namespace and keep those
	// pointing at this table. The catalog is small; the scan is cheap.
	cells, err := ct.Scan(ctx, tx, []byte(catKeyIndex), -1)
	if err != nil {
		return nil, err
	}
	for _, cell := range cells {
		if len(cell.Key) == 0 || cell.Key[0] != catKeyIndex[0] {
			break
		}
		is, err := decodeIndexSchema(cell.Value)
		if err != nil {
			return nil, err
		}
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
	cells, err := ct.Scan(ctx, tx, []byte(catKeyTable), -1)
	if err != nil {
		return nil, err
	}
	var out []*TableSchema
	for _, cell := range cells {
		if len(cell.Key) == 0 || cell.Key[0] != catKeyTable[0] {
			break
		}
		ts, err := decodeTableSchema(cell.Value)
		if err != nil {
			return nil, err
		}
		out = append(out, ts)
	}
	return out, nil
}

// ListIndexes returns the schemas of all indexes, read at tx's snapshot.
func (cat *Catalog) ListIndexes(ctx context.Context, tx *kvclient.Tx) ([]*IndexSchema, error) {
	ct, err := cat.catalogTree(ctx)
	if err != nil {
		return nil, err
	}
	cells, err := ct.Scan(ctx, tx, []byte(catKeyIndex), -1)
	if err != nil {
		return nil, err
	}
	var out []*IndexSchema
	for _, cell := range cells {
		if len(cell.Key) == 0 || cell.Key[0] != catKeyIndex[0] {
			break
		}
		is, err := decodeIndexSchema(cell.Value)
		if err != nil {
			return nil, err
		}
		out = append(out, is)
	}
	return out, nil
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
	if err := ct.Put(ctx, tx, key, encodeTableSchema(ts)); err != nil {
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
	ts, err := decodeTableSchema(raw)
	if err != nil {
		return err
	}
	if err := ct.Delete(ctx, tx, key); err != nil {
		return err
	}
	tx.Delete(dbt.RootOID(ts.TreeID, cat.c.NumServers()))
	// Drop dependent indexes.
	cells, err := ct.Scan(ctx, tx, []byte(catKeyIndex), -1)
	if err != nil {
		return err
	}
	for _, cell := range cells {
		if len(cell.Key) == 0 || cell.Key[0] != catKeyIndex[0] {
			break
		}
		is, derr := decodeIndexSchema(cell.Value)
		if derr != nil {
			return derr
		}
		if is.Table == st.Name {
			if err := ct.Delete(ctx, tx, cell.Key); err != nil {
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
	if err := ct.Put(ctx, tx, key, encodeIndexSchema(is)); err != nil {
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
	is, err := decodeIndexSchema(raw)
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
