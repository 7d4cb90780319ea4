package main

// Checks on the final state, run after the window on the quiet system.
// Replies are checked as they arrive (workload.go); this file checks
// what is left behind.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"yesquel/internal/sql"
	"yesquel/internal/ycsb"
)

// finalSample bounds how many updated keys the YCSB check re-reads.
const finalSample = 2000

// verify records violations in s.bad; an error means a check could not
// run at all.
func verify(ctx context.Context, s *system) error {
	db := s.session()
	var err error
	if s.spec.Mix == 0 {
		err = verifyWiki(ctx, s, db)
	} else {
		err = verifyUsertable(ctx, s, db)
	}
	if err != nil {
		return err
	}
	return verifyReplicas(s)
}

func count(ctx context.Context, db *sql.DB, table string) (int64, error) {
	rows, err := db.Query(ctx, "SELECT COUNT(*) FROM "+table)
	if err != nil {
		return 0, err
	}
	if rows.Len() != 1 {
		return 0, fmt.Errorf("COUNT(*) on %s returned %d rows", table, rows.Len())
	}
	return rows.All()[0][0].I, nil
}

// checkTrees runs dbt.Tree.Check on a table's tree and every index tree
// and returns the number of rows the table's tree holds.
func checkTrees(ctx context.Context, s *system, table string) (int, error) {
	tx := s.kvc.Begin()
	defer tx.Abort()
	t, err := s.cat.GetTable(ctx, tx, table)
	if err != nil {
		return 0, err
	}
	res, err := t.Tree.Check(ctx, tx)
	if err != nil {
		s.bad.addf("tree of table %s: %v", table, err)
		return 0, nil
	}
	for i, it := range t.IndexTrees {
		ires, err := it.Check(ctx, tx)
		if err != nil {
			s.bad.addf("tree of index %d of table %s: %v", i, table, err)
		} else if ires.Cells != res.Cells {
			s.bad.addf("index %d of table %s has %d entries for %d rows", i, table, ires.Cells, res.Cells)
		}
	}
	return res.Cells, nil
}

func verifyUsertable(ctx context.Context, s *system, db *sql.DB) error {
	// Row count: loaded rows plus acknowledged inserts. An insert whose
	// outcome is unknown may or may not be there.
	want, unsure := s.spec.Rows, 0
	for _, w := range s.ycsb {
		want += w.inserted
		unsure += len(w.unsure)
	}
	got, err := count(ctx, db, "usertable")
	if err != nil {
		return err
	}
	if int(got) < want || int(got) > want+unsure {
		s.bad.addf("usertable has %d rows, want %d (+%d of unknown outcome)", got, want, unsure)
	}
	cells, err := checkTrees(ctx, s, "usertable")
	if err != nil {
		return err
	}
	if cells != int(got) && s.bad.count == 0 {
		s.bad.addf("usertable's tree holds %d cells but COUNT(*) is %d", cells, got)
	}

	// Every updated key must hold one writer's last acknowledged write.
	last := make(map[int64]map[int]uint64) // key -> writer -> seq
	skip := make(map[int64]bool)
	for _, w := range s.ycsb {
		for k, seq := range w.acked {
			if last[k] == nil {
				last[k] = make(map[int]uint64)
			}
			last[k][w.id] = seq
		}
		for k := range w.unsure {
			skip[k] = true
		}
	}
	keys := make([]int64, 0, len(last))
	for k := range last {
		if !skip[k] {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	rand.New(rand.NewSource(s.seed)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	if len(keys) > finalSample {
		keys = keys[:finalSample]
	}
	read, err := db.Prepare(sqlRead)
	if err != nil {
		return err
	}
	for _, k := range keys {
		rows, err := read.Query(ctx, sql.Text(ycsb.KeyName(k)))
		if err != nil {
			return err
		}
		if rows.Len() != 1 {
			s.bad.addf("final read of key %d returned %d rows", k, rows.Len())
			continue
		}
		key, writer, seq, ok := parseRowValue(s.seed, rows.All()[0][0].B)
		if !ok || key != k {
			s.bad.addf("key %d finally holds a value no writer stored", k)
		} else if want, wrote := last[k][writer]; !wrote || want != seq {
			s.bad.addf("key %d finally holds write %d of writer %d, whose last acknowledged write there is %d", k, seq, writer, want)
		}
	}
	return nil
}

func verifyWiki(ctx context.Context, s *system, db *sql.DB) error {
	pages, err := count(ctx, db, "page")
	if err != nil {
		return err
	}
	if int(pages) != s.spec.Rows {
		s.bad.addf("page has %d rows, want %d", pages, s.spec.Rows)
	}
	// One revision per loaded page plus one per acknowledged edit; an
	// edit that failed half-way may have left its revision behind.
	want, unsure := s.spec.Rows, 0
	for _, w := range s.wiki {
		want += int(w.w.Edits)
		unsure += int(w.w.Errors)
	}
	revs, err := count(ctx, db, "revision")
	if err != nil {
		return err
	}
	if int(revs) < want || int(revs) > want+unsure {
		s.bad.addf("revision has %d rows, want %d (+%d of unknown outcome)", revs, want, unsure)
	}
	latest, err := db.Prepare("SELECT latest FROM page WHERE id = ?")
	if err != nil {
		return err
	}
	rev, err := db.Prepare("SELECT page_id FROM revision WHERE id = ?")
	if err != nil {
		return err
	}
	for p := int64(0); p < int64(s.spec.Rows); p++ {
		rows, err := latest.Query(ctx, sql.Int(p))
		if err != nil {
			return err
		}
		if rows.Len() != 1 {
			s.bad.addf("page %d: %d rows", p, rows.Len())
			continue
		}
		revRows, err := rev.Query(ctx, rows.All()[0][0])
		if err != nil {
			return err
		}
		if revRows.Len() != 1 || revRows.All()[0][0].I != p {
			s.bad.addf("page %d: latest revision %d does not resolve to a revision of that page", p, rows.All()[0][0].I)
		}
	}
	for _, table := range []string{"page", "revision", "pagelink"} {
		if _, err := checkTrees(ctx, s, table); err != nil {
			return err
		}
	}
	return nil
}

// verifyReplicas: once the stream has drained, every member of a
// replicated slot holds the same state.
func verifyReplicas(s *system) error {
	d, err := s.proc.digests()
	if err != nil {
		return err
	}
	if !d.Drained {
		s.bad.addf("backups did not reach the primary's stream head within two seconds")
		return nil
	}
	for slot, ds := range d.Digests {
		for _, x := range ds[1:] {
			if x != ds[0] {
				s.bad.addf("slot %d: replicas disagree on the state digest: %x", slot, ds)
				break
			}
		}
	}
	return nil
}
