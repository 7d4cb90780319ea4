package main

// Shadow calls: for every SQL statement the traced replay ran, make the
// dbt calls a hand-written dbt client would make for the same keys, on
// the table's own trees, and record them as children of the statement's
// span. The statement's self time (statement minus shadow) is then what
// SQL adds over direct use of the tree. The shadows run as a pass of
// their own after the replay, because a statement can leave work behind
// (scan readahead) that would disturb a call made right after it.
// Shadow writes go to parallel raw trees, so they leave the tables
// alone. A shadow call that fails (a background split can abort a
// commit) is counted and skipped; it is never a failed operation.

import (
	"context"
	"errors"
	"strings"

	"yesquel/internal/dbt"
	"yesquel/internal/kv/kvclient"
	"yesquel/internal/sql"
)

// Ids of the two parallel raw trees; ids below 16 are free for users.
const (
	sideTreeA = 8
	sideTreeB = 9
)

// wikiQueries are the statements of wiki.Worker that have a shadow.
const (
	wikiPageByTitle = "FROM page WHERE title = ?"   // view and edit
	wikiRevByID     = "FROM revision WHERE id = ?"  // view
	wikiLinksBySrc  = "FROM pagelink WHERE src = ?" // view
	wikiInsertRev   = "INSERT INTO revision"        // edit
	wikiUpdatePage  = "UPDATE page SET latest"      // edit
)

type shadower struct {
	kvc    *kvclient.Client
	tr     *tracer
	tables map[string]*sql.Table
	sideA  *dbt.Tree
	sideB  *dbt.Tree
	failed int
}

// table opens a table's runtime handle (its own tree and index trees).
func table(ctx context.Context, kvc *kvclient.Client, cat *sql.Catalog, name string) (*sql.Table, error) {
	tx := kvc.Begin()
	defer tx.Abort()
	return cat.GetTable(ctx, tx, name)
}

func newShadower(ctx context.Context, sys *system, tr *tracer) (*shadower, error) {
	s := &shadower{kvc: sys.kvc, tr: tr, tables: make(map[string]*sql.Table)}
	for _, name := range workloadTables(sys.spec) {
		t, err := table(ctx, sys.kvc, sys.cat, name)
		if err != nil {
			return nil, err
		}
		s.tables[name] = t
	}
	var err error
	if s.sideA, err = dbt.Create(ctx, sys.kvc, sideTreeA, dbt.Config{}); err != nil {
		return nil, err
	}
	if s.sideB, err = dbt.Create(ctx, sys.kvc, sideTreeB, dbt.Config{}); err != nil {
		s.sideA.Close()
		return nil, err
	}
	return s, nil
}

func (s *shadower) close() {
	s.sideA.Close()
	s.sideB.Close()
}

// call times f as a shadow span of rec and reports whether it worked.
func (s *shadower) call(rec stmtRecord, name string, f func() error) bool {
	if err := s.tr.shadow(rec, name, f); err != nil {
		s.failed++
		return false
	}
	return true
}

// get is a point lookup; an absent key is an answer, not a failure.
func get(ctx context.Context, tx *kvclient.Tx, t *dbt.Tree, key []byte) error {
	_, err := t.Get(ctx, tx, key)
	if errors.Is(err, dbt.ErrKeyNotFound) {
		return nil
	}
	return err
}

// indexScan returns the row keys of up to n index entries for value v.
// An entry's key is the encoded value followed by the row key; its
// value is the row key.
func indexScan(ctx context.Context, tx *kvclient.Tx, idx *dbt.Tree, v sql.Value, n int) ([][]byte, error) {
	prefix := sql.EncodeKey(v)
	cells, err := idx.Scan(ctx, tx, prefix, n)
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for _, c := range cells {
		if !strings.HasPrefix(string(c.Key), string(prefix)) {
			break
		}
		out = append(out, c.Value)
	}
	return out, nil
}

// shadow makes the dbt calls that stand for one statement.
func (s *shadower) shadow(ctx context.Context, rec stmtRecord) {
	tx := s.kvc.Begin()
	args := rec.args
	// write finishes a shadow that staged puts: commit, or drop them.
	write := func(ok bool) {
		if !ok {
			tx.Abort()
			return
		}
		s.call(rec, "kvclient.commit", func() error { return tx.Commit(ctx) })
	}
	switch q := rec.query; {
	case q == sqlRead:
		s.call(rec, "dbt.get", func() error { return get(ctx, tx, s.tables["usertable"].Tree, sql.EncodeKey(args[0])) })
	case q == sqlScan:
		s.call(rec, "dbt.scan", func() error {
			_, err := s.tables["usertable"].Tree.Scan(ctx, tx, sql.EncodeKey(args[0]), int(args[1].I))
			return err
		})
	case q == sqlUpdate, q == sqlInsert:
		// Look the key up in the table's tree, put the row into the
		// parallel tree, commit.
		key, val := args[1], args[0]
		if q == sqlInsert {
			key, val = args[0], args[1]
		}
		k := sql.EncodeKey(key)
		write(s.call(rec, "dbt.get", func() error { return get(ctx, tx, s.tables["usertable"].Tree, k) }) &&
			s.call(rec, "dbt.put", func() error { return s.sideA.Put(ctx, tx, k, val.B) }))
		return
	case strings.Contains(q, wikiPageByTitle):
		// Unique index on title, then the row by primary key.
		page := s.tables["page"]
		var rowKeys [][]byte
		if s.call(rec, "dbt.scan", func() (err error) {
			rowKeys, err = indexScan(ctx, tx, page.IndexTrees[0], args[0], 1)
			return err
		}) && len(rowKeys) == 1 {
			s.call(rec, "dbt.get", func() error { return get(ctx, tx, page.Tree, rowKeys[0]) })
		}
	case strings.Contains(q, wikiRevByID):
		s.call(rec, "dbt.get", func() error { return get(ctx, tx, s.tables["revision"].Tree, sql.EncodeKey(args[0])) })
	case strings.Contains(q, wikiLinksBySrc):
		// Secondary index range, then the rows in one batched read.
		links := s.tables["pagelink"]
		var rowKeys [][]byte
		if s.call(rec, "dbt.scan", func() (err error) {
			rowKeys, err = indexScan(ctx, tx, links.IndexTrees[0], args[0], rec.rows)
			return err
		}) && len(rowKeys) > 0 {
			s.call(rec, "dbt.getbatch", func() error {
				_, err := links.Tree.GetBatch(ctx, tx, rowKeys)
				return err
			})
		}
	case strings.HasPrefix(q, wikiInsertRev):
		// Primary-key check, the row, its index entry: two trees.
		k := sql.EncodeKey(args[0])
		write(s.call(rec, "dbt.get", func() error { return get(ctx, tx, s.tables["revision"].Tree, k) }) &&
			s.call(rec, "dbt.put", func() error { return s.sideA.Put(ctx, tx, k, sql.EncodeRow(args)) }) &&
			s.call(rec, "dbt.put", func() error {
				return s.sideB.Put(ctx, tx, append(sql.EncodeKey(args[1]), k...), k)
			}))
		return
	case strings.HasPrefix(q, wikiUpdatePage):
		k := sql.EncodeKey(args[1])
		write(s.call(rec, "dbt.get", func() error { return get(ctx, tx, s.tables["page"].Tree, k) }) &&
			s.call(rec, "dbt.put", func() error { return s.sideA.Put(ctx, tx, k, sql.EncodeRow(args)) }))
		return
	}
	tx.Abort()
}
