package sql

import (
	"context"
	"fmt"
	"sort"

	"yesquel/internal/kv/kvclient"
)

// SELECT execution: a left-deep nested-loop join over planned access
// paths, feeding either a plain projector or a hash aggregator, then
// DISTINCT, ORDER BY, and LIMIT/OFFSET. Everything after the scans is
// in-memory — the paper's workload is small fast queries, and the DBT
// delivers rows already ordered by key for the common ORDER-BY-PK case.

// aggRef is an internal expression node: a reference to the i-th
// aggregate computed for the current group.
type aggRef struct{ N int }

func (aggRef) expr() {}

// rewriteAggs replaces aggregate calls in x with aggRef nodes,
// appending the original calls to *aggs.
func rewriteAggs(x Expr, aggs *[]Call) Expr {
	switch t := x.(type) {
	case Call:
		switch t.Fn {
		case "count", "sum", "avg", "min", "max":
			*aggs = append(*aggs, t)
			return aggRef{N: len(*aggs) - 1}
		}
		args := make([]Expr, len(t.Args))
		for i, a := range t.Args {
			args[i] = rewriteAggs(a, aggs)
		}
		return Call{Fn: t.Fn, Args: args, Star: t.Star, Distinct: t.Distinct}
	case BinOp:
		return BinOp{Op: t.Op, L: rewriteAggs(t.L, aggs), R: rewriteAggs(t.R, aggs)}
	case UnOp:
		return UnOp{Op: t.Op, E: rewriteAggs(t.E, aggs)}
	case IsNull:
		return IsNull{E: rewriteAggs(t.E, aggs), Not: t.Not}
	case Between:
		return Between{E: rewriteAggs(t.E, aggs), Lo: rewriteAggs(t.Lo, aggs), Hi: rewriteAggs(t.Hi, aggs), Not: t.Not}
	case InList:
		list := make([]Expr, len(t.List))
		for i, le := range t.List {
			list[i] = rewriteAggs(le, aggs)
		}
		return InList{E: rewriteAggs(t.E, aggs), List: list, Not: t.Not}
	}
	return x
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

// aggEnv evaluates expressions containing aggRef nodes.
type aggEnv struct {
	*env
	aggVals []Value
}

func (e *aggEnv) eval(x Expr) (Value, error) {
	if r, ok := x.(aggRef); ok {
		return e.aggVals[r.N], nil
	}
	// Recurse through composite nodes so nested aggRefs resolve; leaves
	// fall through to the plain evaluator.
	switch t := x.(type) {
	case BinOp:
		return e.evalBin(t)
	case UnOp:
		v, err := e.eval(t.E)
		if err != nil {
			return Null, err
		}
		return e.env.eval(UnOp{Op: t.Op, E: Lit{V: v}})
	case IsNull:
		v, err := e.eval(t.E)
		if err != nil {
			return Null, err
		}
		return e.env.eval(IsNull{E: Lit{V: v}, Not: t.Not})
	case Between:
		v, err := e.eval(t.E)
		if err != nil {
			return Null, err
		}
		lo, err := e.eval(t.Lo)
		if err != nil {
			return Null, err
		}
		hi, err := e.eval(t.Hi)
		if err != nil {
			return Null, err
		}
		return e.env.eval(Between{E: Lit{V: v}, Lo: Lit{V: lo}, Hi: Lit{V: hi}, Not: t.Not})
	case InList:
		v, err := e.eval(t.E)
		if err != nil {
			return Null, err
		}
		list := make([]Expr, len(t.List))
		for i, le := range t.List {
			lv, err := e.eval(le)
			if err != nil {
				return Null, err
			}
			list[i] = Lit{V: lv}
		}
		return e.env.eval(InList{E: Lit{V: v}, List: list, Not: t.Not})
	case Call:
		args := make([]Expr, len(t.Args))
		for i, a := range t.Args {
			v, err := e.eval(a)
			if err != nil {
				return Null, err
			}
			args[i] = Lit{V: v}
		}
		return e.env.eval(Call{Fn: t.Fn, Args: args, Star: t.Star})
	}
	return e.env.eval(x)
}

func (e *aggEnv) evalBin(t BinOp) (Value, error) {
	// Short-circuit semantics preserved by delegating to env after
	// resolving the sides (aggregates cannot appear under AND/OR with
	// side effects anyway).
	l, err := e.eval(t.L)
	if err != nil {
		return Null, err
	}
	r, err := e.eval(t.R)
	if err != nil {
		return Null, err
	}
	return e.env.eval(BinOp{Op: t.Op, L: Lit{V: l}, R: Lit{V: r}})
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
		outRows, orderKeys, err = db.aggregate(e, st, p.items, &joined)
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
			row := flat[k*w : (k+1)*w : (k+1)*w]
			for i, it := range p.items {
				v, err := e.eval(it.E)
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
			outRows[k] = row
			if len(p.orderBy) > 0 {
				keys, err := evalOrderKeys(e, p.orderBy, p.items, row)
				if err != nil {
					return nil, err
				}
				orderKeys = append(orderKeys, keys)
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
					if p.orderBy[i].Desc {
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

// scanOrdered reports whether the scan of a single-table query, planned
// as t, already delivers rows in the order st asks for, so that no sort
// is needed: an ORDER BY on the primary key ascending, since the DBT scan
// delivers rows in primary-key order (and an index-equality scan delivers
// them in row-key order within the fixed value). This also re-enables
// early LIMIT termination for the Web-typical `ORDER BY pk LIMIT n`.
func scanOrdered(st Select, t *tablePlan) bool {
	pk := t.schema.PKCol
	if len(st.OrderBy) != 1 || st.OrderBy[0].Desc || pk < 0 {
		return false
	}
	cr, ok := st.OrderBy[0].E.(ColRef)
	if !ok || cr.Col != t.schema.Cols[pk].Name || (cr.Table != "" && cr.Table != t.alias) {
		return false
	}
	return t.path.kind != pathIdxRange
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
// st — LIMIT plus OFFSET — when nothing downstream (aggregation,
// DISTINCT, a sort left in orderBy) has to see every row, and -1
// otherwise.
func earlyLimit(e *env, st Select, isAgg bool, orderBy []OrderItem) (int, error) {
	if isAgg || len(orderBy) > 0 || st.Distinct || st.Limit == nil {
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

// evalOrderKeys computes the sort key values for one output row.
// ORDER BY can reference output aliases, column positions (1-based
// integers), or arbitrary expressions over the source row.
func evalOrderKeys(e *env, order []OrderItem, items []SelectItem, outRow []Value) ([]Value, error) {
	keys := make([]Value, len(order))
	for i, oi := range order {
		// Positional: ORDER BY 2.
		if lit, ok := oi.E.(Lit); ok && lit.V.T == TypeInt {
			n := int(lit.V.I)
			if n < 1 || n > len(outRow) {
				return nil, fmt.Errorf("sql: ORDER BY position %d out of range", n)
			}
			keys[i] = outRow[n-1]
			continue
		}
		// Alias reference.
		if cr, ok := oi.E.(ColRef); ok && cr.Table == "" {
			matched := false
			for j, it := range items {
				if it.Alias == cr.Col {
					keys[i] = outRow[j]
					matched = true
					break
				}
			}
			if matched {
				continue
			}
		}
		v, err := e.eval(oi.E)
		if err != nil {
			return nil, err
		}
		keys[i] = v
	}
	return keys, nil
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
func (db *DB) aggregate(e *env, st Select, items []SelectItem, joined *joinedRows) ([][]Value, [][]Value, error) {
	// Rewrite aggregates out of the projection, HAVING, and ORDER BY.
	var aggs []Call
	rewritten := make([]Expr, len(items))
	for i, it := range items {
		rewritten[i] = rewriteAggs(it.E, &aggs)
	}
	var havingR Expr
	if st.Having != nil {
		havingR = rewriteAggs(st.Having, &aggs)
	}
	orderR := make([]Expr, len(st.OrderBy))
	for i, oi := range st.OrderBy {
		orderR[i] = rewriteAggs(oi.E, &aggs)
	}

	type group struct {
		keyVals []Value
		states  []*aggState
		first   int // the group's first joined row; -1 for none
	}
	groups := make(map[string]*group)
	var order []string

	for j := 0; j < joined.n; j++ {
		joined.bind(e.bindings, j)
		keyVals := make([]Value, len(st.GroupBy))
		for i, g := range st.GroupBy {
			v, err := e.eval(g)
			if err != nil {
				return nil, nil, err
			}
			keyVals[i] = v
		}
		k := string(EncodeKey(keyVals...))
		g := groups[k]
		if g == nil {
			g = &group{keyVals: keyVals, states: make([]*aggState, len(aggs)), first: j}
			for i := range g.states {
				g.states[i] = &aggState{}
			}
			groups[k] = g
			order = append(order, k)
		}
		for i, call := range aggs {
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
	if len(st.GroupBy) == 0 && len(groups) == 0 {
		g := &group{states: make([]*aggState, len(aggs)), first: -1}
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
		aggVals := make([]Value, len(aggs))
		for i, call := range aggs {
			aggVals[i] = g.states[i].result(call.Fn)
		}
		ae := &aggEnv{env: e, aggVals: aggVals}
		if havingR != nil {
			v, err := ae.eval(havingR)
			if err != nil {
				return nil, nil, err
			}
			if v.IsNull() || !v.Truthy() {
				continue
			}
		}
		row := make([]Value, len(rewritten))
		for i, rx := range rewritten {
			v, err := ae.eval(rx)
			if err != nil {
				return nil, nil, err
			}
			row[i] = v
		}
		outRows = append(outRows, row)
		if len(st.OrderBy) > 0 {
			keys := make([]Value, len(orderR))
			for i, ox := range orderR {
				// Positional and alias forms first.
				if lit, ok := st.OrderBy[i].E.(Lit); ok && lit.V.T == TypeInt {
					n := int(lit.V.I)
					if n < 1 || n > len(row) {
						return nil, nil, fmt.Errorf("sql: ORDER BY position %d out of range", n)
					}
					keys[i] = row[n-1]
					continue
				}
				if cr, ok := st.OrderBy[i].E.(ColRef); ok && cr.Table == "" {
					matched := false
					for j, it := range items {
						if it.Alias == cr.Col {
							keys[i] = row[j]
							matched = true
							break
						}
					}
					if matched {
						continue
					}
				}
				v, err := ae.eval(ox)
				if err != nil {
					return nil, nil, err
				}
				keys[i] = v
			}
			orderKeys = append(orderKeys, keys)
		}
	}
	return outRows, orderKeys, nil
}
