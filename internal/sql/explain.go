package sql

import (
	"context"
	"fmt"
	"strings"

	"yesquel/internal/kv/kvclient"
)

// EXPLAIN: print the statement's plan (stmtPlan), one line per table in
// join order, saying what each will fetch and check, without executing
// the statement.

// describe names the table's path and, in trailing parentheses, what it
// asks the storage layer for — a point read (one cell of one leaf), or a
// scan that is bounded (it has an upper key, so no leaf read goes past
// it) or open-ended, with the row limit handed down to size its leaf
// reads, if any — and what each row it yields is checked against. Both
// follow scanTable's rule: a path whose bounds key no range
// (evalKeyRange's ok) scans the whole table, and no row is checked where
// the key range implies the table's conjuncts (keyRange.implied), every
// one of them otherwise. A bound EXPLAIN cannot evaluate — a parameter it
// was not given, a column of an outer table — counts as keying a range
// that implies nothing.
func (t *tablePlan) describe(e *env) string {
	p, s := t.path, t.schema
	filter := fmt.Sprintf("(row filter: %d conjuncts)", len(t.conj))
	if len(t.conj) == 1 {
		filter = "(row filter: 1 conjunct)"
	}
	if col := p.keyCol(s); col >= 0 {
		r, ok, err := evalKeyRange(e, p, s.Cols[col].Type)
		switch {
		case err != nil: // the path as planned, implying nothing
		case !ok:
			p = accessPath{kind: pathFull}
		case r.implied:
			filter = "(row filter: none — implied by key range)"
		}
	}
	var what string
	switch p.kind {
	case pathPKEq:
		return fmt.Sprintf("PRIMARY KEY lookup on %s (%s = ...) (point read) %s", s.Name, s.Cols[s.PKCol].Name, filter)
	case pathPKRange:
		what = fmt.Sprintf("PRIMARY KEY range scan on %s (%s)", s.Name, describeBounds(s.Cols[s.PKCol].Name, p))
	case pathIdxEq:
		is := s.Indexes[p.idx]
		what = fmt.Sprintf("INDEX lookup on %s via %s (%s = ...)", s.Name, is.Name, is.Col)
	case pathIdxRange:
		is := s.Indexes[p.idx]
		what = fmt.Sprintf("INDEX range scan on %s via %s (%s)", s.Name, is.Name, describeBounds(is.Col, p))
	default:
		what = fmt.Sprintf("FULL SCAN of %s", s.Name)
	}
	var fetch []string
	switch {
	case p.kind == pathFull:
	case p.eq != nil || p.hi != nil:
		fetch = append(fetch, "bounded")
	default:
		fetch = append(fetch, "open-ended")
	}
	if n := p.scanLimit(t.table, t.limit); n > 0 {
		fetch = append(fetch, fmt.Sprintf("limit %d", n))
	}
	if len(fetch) > 0 {
		what += " (" + strings.Join(fetch, ", ") + ")"
	}
	return what + " " + filter
}

func describeBounds(col string, p accessPath) string {
	var parts []string
	if p.lo != nil {
		op := ">"
		if p.lo.incl {
			op = ">="
		}
		parts = append(parts, fmt.Sprintf("%s %s ...", col, op))
	}
	if p.hi != nil {
		op := "<"
		if p.hi.incl {
			op = "<="
		}
		parts = append(parts, fmt.Sprintf("%s %s ...", col, op))
	}
	return strings.Join(parts, " AND ")
}

func (db *DB) execExplain(ctx context.Context, tx *kvclient.Tx, st Explain, args []Value) (*Rows, error) {
	var p stmtPlan
	var err error
	verb := "" // an UPDATE's or DELETE's, before its one table
	switch s := st.Stmt.(type) {
	case Select:
		p, err = db.planSelect(ctx, tx, s, args)
	case Update:
		p, err = db.planTables(ctx, tx, &TableRef{Name: s.Table}, nil, s.Where, args)
		verb = "UPDATE via "
	case Delete:
		p, err = db.planTables(ctx, tx, &TableRef{Name: s.Table}, nil, s.Where, args)
		verb = "DELETE via "
	default:
		return nil, fmt.Errorf("sql: cannot explain %T", st.Stmt)
	}
	if err != nil {
		return nil, err
	}
	rows := &Rows{Columns: []string{"plan"}}
	addLine := func(depth int, line string) {
		rows.rows = append(rows.rows, []Value{Text(strings.Repeat("  ", depth) + line)})
	}
	if len(p.tables) == 0 {
		addLine(0, "CONSTANT ROW (no FROM)")
	}
	for depth := range p.tables {
		prefix := verb
		if depth > 0 {
			prefix = "NESTED LOOP JOIN: "
		}
		addLine(depth, prefix+p.tables[depth].describe(&p.e))
	}
	if verb != "" {
		if n := len(p.tables[0].schema.Indexes); n > 0 {
			addLine(1, fmt.Sprintf("maintains %d secondary index(es)", n))
		}
		return rows, nil
	}
	// A LIMIT that cannot be evaluated (a parameter EXPLAIN was not given:
	// p.limitErr) has been reported as not handed down.
	sel := st.Stmt.(Select)
	if p.agg {
		addLine(0, fmt.Sprintf("HASH AGGREGATE (%d group-by keys)", len(p.groupBy)))
	}
	if sel.Distinct {
		addLine(0, "DISTINCT")
	}
	if len(p.orderBy) > 0 {
		addLine(0, fmt.Sprintf("SORT (%d keys)", len(p.orderBy)))
	}
	if sel.Limit != nil {
		addLine(0, "LIMIT")
	}
	return rows, nil
}
