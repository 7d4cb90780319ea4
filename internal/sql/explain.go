package sql

import (
	"context"
	"fmt"
	"strings"

	"yesquel/internal/kv/kvclient"
)

// EXPLAIN: report the access paths the planner would use, one line per
// table in join order, and what each will fetch and check, without
// executing the statement.

// describe names the path and, in trailing parentheses, what it asks the
// storage layer for — a point read (one cell of one leaf), or a scan that
// is bounded (it has an upper key, so no leaf read goes past it) or
// open-ended, with the row limit handed down to size its leaf reads, if
// any, and the REAL keys an INTEGER index scan also reads
// (readsRealKeys) — and what each row it yields is checked against
// (rowFilter).
// limit is the statement's row limit for this table (0 = none).
func (p accessPath) describe(table *Table, limit int, e *env) string {
	s := table.Schema
	var what string
	switch p.kind {
	case pathPKEq:
		return fmt.Sprintf("PRIMARY KEY lookup on %s (%s = ...) (point read) %s", s.Name, s.Cols[s.PKCol].Name, p.rowFilter(e, s))
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
	if n := p.scanLimit(table, limit); n > 0 {
		fetch = append(fetch, fmt.Sprintf("limit %d", n))
	}
	if p.readsRealKeys(s) {
		fetch = append(fetch, "then every REAL key")
	}
	if len(fetch) > 0 {
		what += " (" + strings.Join(fetch, ", ") + ")"
	}
	return what + " " + p.rowFilter(e, s)
}

// rowFilter says what each row the path yields is checked against, by
// the rule scanTable follows: nothing where the key range implies the
// path's conjuncts (keyRange.implied), else every one of them. A bound
// EXPLAIN cannot evaluate — a parameter it was not given, a column of an
// outer table — counts as not implying them.
func (p accessPath) rowFilter(e *env, s *TableSchema) string {
	if col := p.keyCol(s); col >= 0 {
		if r, ok, err := evalKeyRange(e, p, s.Cols[col].Type); err == nil && ok && r.implied {
			return "(row filter: none — implied by key range)"
		}
	}
	if len(p.conj) == 1 {
		return "(row filter: 1 conjunct)"
	}
	return fmt.Sprintf("(row filter: %d conjuncts)", len(p.conj))
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
	rows := &Rows{Columns: []string{"plan"}}
	addLine := func(depth int, line string) {
		rows.rows = append(rows.rows, []Value{Text(strings.Repeat("  ", depth) + line)})
	}
	switch s := st.Stmt.(type) {
	case Select:
		if s.From == nil {
			addLine(0, "CONSTANT ROW (no FROM)")
			break
		}
		refs := []TableRef{*s.From}
		for _, j := range s.Joins {
			refs = append(refs, j.Right)
		}
		var conj []Expr
		conj = conjuncts(s.Where, conj)
		for _, j := range s.Joins {
			conj = conjuncts(j.On, conj)
		}
		e := &env{params: args}
		agg := len(s.GroupBy) > 0 || s.Having != nil
		for _, it := range s.Items {
			if hasAggregate(it.E) {
				agg = true
			}
		}
		orderBy := s.OrderBy
		outer := make(map[string]bool)
		for depth, r := range refs {
			alias := r.Alias
			if alias == "" {
				alias = r.Name
			}
			table, err := db.cat.GetTable(ctx, tx, r.Name)
			if err != nil {
				return nil, err
			}
			limit := 0
			if len(refs) == 1 {
				if !agg && !s.Distinct && scanOrdered(s, table, alias, conj) {
					orderBy = nil
				}
				// A LIMIT that cannot be evaluated here (a parameter
				// EXPLAIN was not given) is reported as not handed down.
				if early, err := earlyLimit(e, s, agg, orderBy); err == nil {
					limit = scanRowLimit(early, 1)
				}
			}
			path := planAccess(table, alias, conj, outer)
			prefix := ""
			if depth > 0 {
				prefix = "NESTED LOOP JOIN: "
			}
			addLine(depth, prefix+path.describe(table, limit, e))
			outer[alias] = true
		}
		if agg {
			addLine(0, fmt.Sprintf("HASH AGGREGATE (%d group-by keys)", len(s.GroupBy)))
		}
		if s.Distinct {
			addLine(0, "DISTINCT")
		}
		if len(orderBy) > 0 {
			addLine(0, fmt.Sprintf("SORT (%d keys)", len(orderBy)))
		}
		if s.Limit != nil {
			addLine(0, "LIMIT")
		}
	case Update:
		table, err := db.cat.GetTable(ctx, tx, s.Table)
		if err != nil {
			return nil, err
		}
		path := planAccess(table, s.Table, conjuncts(s.Where, nil), nil)
		addLine(0, "UPDATE via "+path.describe(table, 0, &env{params: args}))
		if len(table.Schema.Indexes) > 0 {
			addLine(1, fmt.Sprintf("maintains %d secondary index(es)", len(table.Schema.Indexes)))
		}
	case Delete:
		table, err := db.cat.GetTable(ctx, tx, s.Table)
		if err != nil {
			return nil, err
		}
		path := planAccess(table, s.Table, conjuncts(s.Where, nil), nil)
		addLine(0, "DELETE via "+path.describe(table, 0, &env{params: args}))
		if len(table.Schema.Indexes) > 0 {
			addLine(1, fmt.Sprintf("maintains %d secondary index(es)", len(table.Schema.Indexes)))
		}
	default:
		return nil, fmt.Errorf("sql: cannot explain %T", st.Stmt)
	}
	return rows, nil
}
