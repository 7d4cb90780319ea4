package sql

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"yesquel/internal/kv/kvclient"
)

// SELECT execution: a left-deep nested-loop join over planned access
// paths, feeding either a plain projector or a hash aggregator, then
// DISTINCT, ORDER BY, and LIMIT/OFFSET. Everything after the scans is
// in-memory — the paper's workload is small fast queries, and the DBT
// delivers rows already ordered by key for the common ORDER-BY-PK case.
// Each step reads what the plan resolved (stmtPlan.resolve): the
// aggregates and the expressions that read them, the GROUP BY terms, and
// each ORDER BY term as an output column or an expression. None resolves
// a name again.

// aggRef is an internal expression node: a reference to the i-th
// aggregate computed for the current group.
type aggRef struct{ N int }

func (aggRef) expr() {}

// isAggregate reports whether fn names an aggregate function.
func isAggregate(fn string) bool {
	switch fn {
	case "count", "sum", "avg", "min", "max":
		return true
	}
	return false
}

// rewriteAggs replaces aggregate calls in x with aggRef nodes,
// appending the original calls to *aggs.
func rewriteAggs(x Expr, aggs *[]Call) Expr {
	return rewrite(x, func(x Expr) (Expr, bool) {
		if c, ok := x.(Call); ok && isAggregate(c.Fn) {
			*aggs = append(*aggs, c)
			return aggRef{N: len(*aggs) - 1}, true
		}
		return nil, false
	})
}

// rewrite returns x with the nodes f replaces replaced: f sees each node
// before its children, and the children of a node it replaces are not
// visited.
func rewrite(x Expr, f func(Expr) (Expr, bool)) Expr {
	if y, ok := f(x); ok {
		return y
	}
	switch t := x.(type) {
	case Call:
		args := make([]Expr, len(t.Args))
		for i, a := range t.Args {
			args[i] = rewrite(a, f)
		}
		return Call{Fn: t.Fn, Args: args, Star: t.Star, Distinct: t.Distinct}
	case BinOp:
		return BinOp{Op: t.Op, L: rewrite(t.L, f), R: rewrite(t.R, f)}
	case UnOp:
		return UnOp{Op: t.Op, E: rewrite(t.E, f)}
	case IsNull:
		return IsNull{E: rewrite(t.E, f), Not: t.Not}
	case Between:
		return Between{E: rewrite(t.E, f), Lo: rewrite(t.Lo, f), Hi: rewrite(t.Hi, f), Not: t.Not}
	case InList:
		list := make([]Expr, len(t.List))
		for i, le := range t.List {
			list[i] = rewrite(le, f)
		}
		return InList{E: rewrite(t.E, f), List: list, Not: t.Not}
	}
	return x
}

// aliases returns x with each bare name that names no column but names
// an output item replaced by that item's expression: in GROUP BY and
// HAVING, as in SQLite, a name is a column first and an alias only when
// no column has it.
func (p *stmtPlan) aliases(x Expr) Expr {
	return rewrite(x, func(x Expr) (Expr, bool) {
		c, ok := x.(ColRef)
		if !ok || c.Table != "" || slices.ContainsFunc(p.e.bindings, func(b *binding) bool { return b.schema.ColIndex(c.Col) >= 0 }) {
			return nil, false
		}
		k := slices.IndexFunc(p.items, func(it SelectItem) bool { return it.Alias == c.Col })
		if k < 0 {
			return nil, false
		}
		return p.items[k].E, true
	})
}

// aggState accumulates one aggregate over one group.
type aggState struct {
	count    int64
	sumI     int64
	sumF     float64
	sumIsInt bool
	haveSum  bool
	min, max Value
	distinct map[string]bool
}

func (a *aggState) add(v Value, distinct bool) {
	if v.IsNull() {
		return
	}
	if distinct {
		if a.distinct == nil {
			a.distinct = make(map[string]bool)
		}
		k := string(EncodeKey(v))
		if a.distinct[k] {
			return
		}
		a.distinct[k] = true
	}
	a.count++
	switch v.T {
	case TypeInt:
		if !a.haveSum {
			a.sumIsInt = true
		}
		a.sumI += v.I
		a.sumF += float64(v.I)
	case TypeFloat:
		a.sumIsInt = false
		a.sumF += v.F
	}
	a.haveSum = true
	if a.min.IsNull() || Compare(v, a.min) < 0 {
		a.min = v
	}
	if a.max.IsNull() || Compare(v, a.max) > 0 {
		a.max = v
	}
}

func (a *aggState) result(fn string) Value {
	switch fn {
	case "count":
		return Int(a.count)
	case "sum":
		if !a.haveSum {
			return Null
		}
		if a.sumIsInt {
			return Int(a.sumI)
		}
		return Float(a.sumF)
	case "avg":
		if a.count == 0 {
			return Null
		}
		return Float(a.sumF / float64(a.count))
	case "min":
		return a.min
	case "max":
		return a.max
	}
	return Null
}

// joinedRows are the outputs of the join pipeline, each the bindings'
// rows at the moment it matched, laid end to end in one slice: a joined
// row costs no allocation of its own.
type joinedRows struct {
	rows  [][]Value // joined row k is rows[k*width : (k+1)*width]
	width int       // the number of bindings
	n     int
}

func (j *joinedRows) add(bindings []*binding) {
	for _, b := range bindings {
		j.rows = append(j.rows, b.row)
	}
	j.n++
}

// bind binds joined row k to the bindings, or none with k < 0.
func (j *joinedRows) bind(bindings []*binding, k int) {
	for i, b := range bindings {
		b.row = nil
		if k >= 0 {
			b.row = j.rows[k*j.width+i]
		}
	}
}

func (db *DB) execSelect(ctx context.Context, tx *kvclient.Tx, st Select, args []Value) (*Rows, error) {
	p, err := db.planSelect(ctx, tx, st, args)
	if err != nil {
		return nil, err
	}
	if p.limitErr != nil {
		return nil, p.limitErr
	}
	e := &p.e

	// The scan pipeline produces joined rows. A row limit sizes their
	// slice, up to a scan's largest row array: a LIMIT beyond what a table
	// holds reserves no more.
	joined := joinedRows{width: len(p.tables)}
	if p.early > 0 {
		joined.rows = make([][]Value, 0, min(p.early, maxSlabRows)*joined.width)
	}

	var recurse func(depth int) (bool, error)
	recurse = func(depth int) (bool, error) {
		if depth == len(p.tables) {
			joined.add(e.bindings)
			if p.early >= 0 && joined.n >= p.early {
				return false, nil
			}
			return true, nil
		}
		t := &p.tables[depth]
		cont := true
		err := db.scanTable(ctx, tx, t, e, func([]byte, []Value) (bool, error) {
			c2, err := recurse(depth + 1)
			if err != nil {
				return false, err
			}
			cont = c2
			return c2, nil
		})
		t.row = nil
		return cont, err
	}

	if st.From == nil {
		// SELECT without FROM: one empty row, filtered by WHERE if any.
		keep := true
		if st.Where != nil {
			v, err := e.eval(st.Where)
			if err != nil {
				return nil, err
			}
			keep = !v.IsNull() && v.Truthy()
		}
		if keep {
			joined.add(nil)
		}
	} else {
		if _, err := recurse(0); err != nil {
			return nil, err
		}
	}

	// Project: aggregate, slice, or evaluate.
	var outRows [][]Value
	var orderKeys [][]Value
	switch {
	case p.agg:
		outRows, orderKeys, err = p.aggregate(&joined)
		if err != nil {
			return nil, err
		}
	case p.sliced:
		// A projected row is a slice of its decoded row, and the joined rows'
		// slice holds them: one binding makes one entry per row.
		outRows = joined.rows[:joined.n]
		for k, row := range outRows {
			outRows[k] = row[p.lo:p.hi:p.hi]
		}
	default:
		// Every projected row is a slice of one array.
		w := len(p.items)
		flat := make([]Value, joined.n*w)
		outRows = make([][]Value, joined.n)
		for k := range outRows {
			joined.bind(e.bindings, k)
			outRows[k] = flat[k*w : (k+1)*w : (k+1)*w]
			if orderKeys, err = p.project(outRows[k], orderKeys); err != nil {
				return nil, err
			}
		}
	}

	// DISTINCT.
	if st.Distinct {
		seen := make(map[string]bool)
		kept := outRows[:0]
		var keptKeys [][]Value
		for i, r := range outRows {
			k := string(EncodeKey(r...))
			if seen[k] {
				continue
			}
			seen[k] = true
			kept = append(kept, r)
			if orderKeys != nil {
				keptKeys = append(keptKeys, orderKeys[i])
			}
		}
		outRows = kept
		if orderKeys != nil {
			orderKeys = keptKeys
		}
	}

	// ORDER BY.
	if len(p.orderBy) > 0 {
		idx := make([]int, len(outRows))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			ka, kb := orderKeys[idx[a]], orderKeys[idx[b]]
			for i := range p.orderBy {
				c := Compare(ka[i], kb[i])
				if c != 0 {
					if p.orderBy[i].desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
		sorted := make([][]Value, len(outRows))
		for i, j := range idx {
			sorted[i] = outRows[j]
		}
		outRows = sorted
	}

	// LIMIT / OFFSET.
	lim, off, err := evalLimit(e, st)
	if err != nil {
		return nil, err
	}
	if off > 0 {
		if off >= len(outRows) {
			outRows = nil
		} else {
			outRows = outRows[off:]
		}
	}
	if lim >= 0 && lim < len(outRows) {
		outRows = outRows[:lim]
	}

	return &Rows{Columns: p.columns, rows: outRows}, nil
}

// scanOrdered reports whether the scan of a single-table query already
// delivers rows in the order p asks for, so that no sort is needed: an
// ORDER BY on the primary key ascending, be the term the column or an
// output column that is it, since the DBT scan delivers rows in
// primary-key order (and an index-equality scan delivers them in row-key
// order within the fixed value). This also re-enables early LIMIT
// termination for the Web-typical `ORDER BY pk LIMIT n`.
func (p *stmtPlan) scanOrdered() bool {
	t := &p.tables[0]
	if len(p.orderBy) != 1 || p.orderBy[0].desc || t.schema.PKCol < 0 || t.path.kind == pathIdxRange {
		return false
	}
	x := p.orderBy[0].e
	if k := p.orderBy[0].col; k >= 0 {
		x = p.items[k].E
	}
	col, ok := p.e.column(x, 0)
	return ok && col == t.schema.PKCol
}

// columnRun reports whether items are plain columns of b's table forming
// the run [lo, hi) of its schema, in schema order (SELECT *, SELECT k, v):
// then a projected row is the subslice row[lo:hi] of a row of b.
func columnRun(items []SelectItem, b *binding) (lo, hi int, ok bool) {
	for i, it := range items {
		cr, isCol := it.E.(ColRef)
		if !isCol || (cr.Table != "" && cr.Table != b.alias) {
			return 0, 0, false
		}
		c := b.schema.ColIndex(cr.Col)
		if i == 0 {
			lo = c
		}
		if c < 0 || c != lo+i {
			return 0, 0, false
		}
	}
	return lo, lo + len(items), len(items) > 0
}

// earlyLimit returns how many joined rows the scans need to produce for
// st — LIMIT plus OFFSET — when nothing downstream (aggregation, a sort:
// whole; DISTINCT) has to see every row, and -1 otherwise.
func earlyLimit(e *env, st Select, whole bool) (int, error) {
	if whole || st.Distinct || st.Limit == nil {
		return -1, nil
	}
	lim, off, err := evalLimit(e, st)
	if err != nil || lim < 0 {
		return -1, err
	}
	return lim + off, nil
}

// expandItems expands * and t.* and derives output column names.
func expandItems(items []SelectItem, e *env) ([]SelectItem, []string, error) {
	var out []SelectItem
	var names []string
	for _, it := range items {
		if star, ok := it.E.(Star); ok {
			found := false
			for _, b := range e.bindings {
				if star.Table != "" && star.Table != b.alias {
					continue
				}
				found = true
				for _, c := range b.schema.Cols {
					out = append(out, SelectItem{E: ColRef{Table: b.alias, Col: c.Name}})
					names = append(names, c.Name)
				}
			}
			if !found {
				return nil, nil, fmt.Errorf("sql: no table for %s.*", star.Table)
			}
			continue
		}
		out = append(out, it)
		switch {
		case it.Alias != "":
			names = append(names, it.Alias)
		default:
			if cr, ok := it.E.(ColRef); ok {
				names = append(names, cr.Col)
			} else {
				names = append(names, fmt.Sprintf("col%d", len(names)+1))
			}
		}
	}
	return out, names, nil
}

// resolve resolves, once, what st names besides its tables and WHERE.
// A GROUP BY term that is an integer literal k names output item k's
// expression, which may hold no aggregate; a name in GROUP BY or HAVING
// that is no column may name an output item by its alias (aliases). The
// items and HAVING have
// their aggregates rewritten into p.aggs (rewriteAggs), and p aggregates
// if they hold any, or there is a GROUP BY or a HAVING; then an ORDER BY
// term may hold aggregates too, as in SQLite. Each ORDER BY term
// resolves with SQLite's precedence: an integer literal k names output
// column k, a bare name equal to an output alias names that column, and
// anything else is an expression over the joined row. Every column any of
// them names resolves here too, so an ambiguous or unknown one fails
// before any read.
func (p *stmtPlan) resolve(st Select) error {
	for _, g := range st.GroupBy {
		k, err := position(g, len(p.items), "GROUP BY")
		if err != nil {
			return err
		}
		if k >= 0 {
			g = p.items[k].E
		}
		g = p.aliases(g)
		var aggs []Call
		if rewriteAggs(g, &aggs); len(aggs) > 0 {
			return fmt.Errorf("sql: aggregate functions are not allowed in the GROUP BY clause")
		}
		if _, err := p.e.refDepth(g); err != nil {
			return err
		}
		p.groupBy = append(p.groupBy, g)
	}
	if st.Having != nil {
		p.having = p.aliases(st.Having) // before the items' aggregates are rewritten
	}
	for i := range p.items {
		p.items[i].E = rewriteAggs(p.items[i].E, &p.aggs)
		if _, err := p.e.refDepth(p.items[i].E); err != nil {
			return err
		}
	}
	if p.having != nil {
		p.having = rewriteAggs(p.having, &p.aggs)
		if _, err := p.e.refDepth(p.having); err != nil {
			return err
		}
	}
	p.agg = len(p.aggs) > 0 || len(p.groupBy) > 0 || p.having != nil
	for _, o := range st.OrderBy {
		k, err := position(o.E, len(p.items), "ORDER BY")
		if err != nil {
			return err
		}
		if cr, ok := o.E.(ColRef); k < 0 && ok && cr.Table == "" {
			k = slices.IndexFunc(p.items, func(it SelectItem) bool { return it.Alias == cr.Col })
		}
		key := orderKey{col: k, desc: o.Desc}
		if k < 0 {
			if key.e = o.E; p.agg {
				key.e = rewriteAggs(o.E, &p.aggs)
			}
			if _, err := p.e.refDepth(key.e); err != nil {
				return err
			}
		}
		p.orderBy = append(p.orderBy, key)
	}
	return nil
}

// position is the output column an integer literal k names as a GROUP BY
// or ORDER BY term, k-1, or -1 when x is no integer literal.
func position(x Expr, columns int, clause string) (int, error) {
	lit, ok := x.(Lit)
	if !ok || lit.V.T != TypeInt {
		return -1, nil
	}
	if lit.V.I < 1 || lit.V.I > int64(columns) {
		return -1, fmt.Errorf("sql: %s position %d out of range", clause, lit.V.I)
	}
	return int(lit.V.I) - 1, nil
}

// project evaluates p's items into row, the joined row it projects being
// bound, and appends the row's ORDER BY keys to keys if p sorts.
func (p *stmtPlan) project(row []Value, keys [][]Value) ([][]Value, error) {
	var err error
	for i, it := range p.items {
		if row[i], err = p.e.eval(it.E); err != nil {
			return keys, err
		}
	}
	if len(p.orderBy) == 0 {
		return keys, nil
	}
	k := make([]Value, len(p.orderBy))
	for i, o := range p.orderBy {
		if o.col >= 0 {
			k[i] = row[o.col]
		} else if k[i], err = p.e.eval(o.e); err != nil {
			return keys, err
		}
	}
	return append(keys, k), nil
}

func evalLimit(e *env, st Select) (lim, off int, err error) {
	lim = -1
	if st.Limit != nil {
		v, err := e.eval(st.Limit)
		if err != nil {
			return 0, 0, err
		}
		if v.T != TypeInt || v.I < 0 {
			return 0, 0, fmt.Errorf("sql: bad LIMIT %s", v)
		}
		lim = int(v.I)
	}
	if st.Offset != nil {
		v, err := e.eval(st.Offset)
		if err != nil {
			return 0, 0, err
		}
		if v.T != TypeInt || v.I < 0 {
			return 0, 0, fmt.Errorf("sql: bad OFFSET %s", v)
		}
		off = int(v.I)
	}
	return lim, off, nil
}

// aggregate runs hash aggregation over the joined rows and returns the
// projected group rows plus their ORDER BY keys.
func (p *stmtPlan) aggregate(joined *joinedRows) ([][]Value, [][]Value, error) {
	e := &p.e
	type group struct {
		keyVals []Value
		states  []*aggState
		first   int // the group's first joined row; -1 for none
	}
	groups := make(map[string]*group)
	var order []string

	for j := 0; j < joined.n; j++ {
		joined.bind(e.bindings, j)
		keyVals := make([]Value, len(p.groupBy))
		for i, g := range p.groupBy {
			v, err := e.eval(g)
			if err != nil {
				return nil, nil, err
			}
			keyVals[i] = v
		}
		k := string(EncodeKey(keyVals...))
		g := groups[k]
		if g == nil {
			g = &group{keyVals: keyVals, states: make([]*aggState, len(p.aggs)), first: j}
			for i := range g.states {
				g.states[i] = &aggState{}
			}
			groups[k] = g
			order = append(order, k)
		}
		for i, call := range p.aggs {
			if call.Star {
				g.states[i].count++
				continue
			}
			if len(call.Args) != 1 {
				return nil, nil, fmt.Errorf("sql: %s() takes one argument", call.Fn)
			}
			v, err := e.eval(call.Args[0])
			if err != nil {
				return nil, nil, err
			}
			g.states[i].add(v, call.Distinct)
		}
	}

	// No GROUP BY: aggregates over the empty input still yield one row.
	if len(p.groupBy) == 0 && len(groups) == 0 {
		g := &group{states: make([]*aggState, len(p.aggs)), first: -1}
		for i := range g.states {
			g.states[i] = &aggState{}
		}
		groups[""] = g
		order = append(order, "")
	}

	var outRows [][]Value
	var orderKeys [][]Value
	for _, k := range order {
		g := groups[k]
		joined.bind(e.bindings, g.first)
		e.aggs = make([]Value, len(p.aggs))
		for i, call := range p.aggs {
			e.aggs[i] = g.states[i].result(call.Fn)
		}
		if p.having != nil {
			v, err := e.eval(p.having)
			if err != nil {
				return nil, nil, err
			}
			if v.IsNull() || !v.Truthy() {
				continue
			}
		}
		row := make([]Value, len(p.items))
		var err error
		if orderKeys, err = p.project(row, orderKeys); err != nil {
			return nil, nil, err
		}
		outRows = append(outRows, row)
	}
	return outRows, orderKeys, nil
}
