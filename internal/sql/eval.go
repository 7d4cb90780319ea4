package sql

import (
	"fmt"
	"math"
	"strings"
)

// binding exposes one table's current row to expression evaluation.
type binding struct {
	alias  string // table alias (or name)
	schema *TableSchema
	row    []Value
}

// env is the evaluation environment: the bound rows, the statement
// parameters and, while a group's row is projected, the group's
// aggregate values (an aggRef's).
type env struct {
	bindings []*binding
	params   []Value
	aggs     []Value
}

// lookup finds the column c names: the position of its binding in
// e.bindings and its position in that binding's schema.
func (e *env) lookup(c ColRef) (b, col int, err error) {
	b = -1
	for i, bi := range e.bindings {
		if c.Table != "" && c.Table != bi.alias {
			continue
		}
		if j := bi.schema.ColIndex(c.Col); j >= 0 {
			if b >= 0 {
				return 0, 0, fmt.Errorf("sql: ambiguous column %s", c.Col)
			}
			b, col = i, j
		}
	}
	switch {
	case b >= 0:
		return b, col, nil
	case c.Table != "":
		return 0, 0, fmt.Errorf("sql: no such column %s.%s", c.Table, c.Col)
	}
	return 0, 0, fmt.Errorf("sql: no such column %s", c.Col)
}

// resolve finds the column and returns its current value.
func (e *env) resolve(c ColRef) (Value, error) {
	b, col, err := e.lookup(c)
	if err != nil {
		return Null, err
	}
	if row := e.bindings[b].row; row != nil {
		return row[col], nil
	}
	return Null, nil
}

// depth is the join depth at which conjunct c becomes decidable: 1 + the
// position of the last binding it references, or the number of bindings
// for a constant. Every column c names is resolved on the way, so an
// ambiguous or unknown one fails here, whatever rows there are.
func (e *env) depth(c Expr) (int, error) {
	d, err := e.refDepth(c)
	if d == 0 {
		d = len(e.bindings)
	}
	return d, err
}

// refDepth is 1 + the position of the last binding x references, 0 for
// none. An aggregate call is an error: where one may stand, the plan has
// rewritten it (rewriteAggs) before asking.
func (e *env) refDepth(x Expr) (int, error) {
	switch t := x.(type) {
	case ColRef:
		b, _, err := e.lookup(t)
		return b + 1, err
	case BinOp:
		return e.refDepths(t.L, t.R)
	case UnOp:
		return e.refDepth(t.E)
	case IsNull:
		return e.refDepth(t.E)
	case Between:
		return e.refDepths(t.E, t.Lo, t.Hi)
	case InList:
		d, err := e.refDepths(t.List...)
		if err != nil {
			return 0, err
		}
		de, err := e.refDepth(t.E)
		return max(d, de), err
	case Call:
		if isAggregate(t.Fn) {
			return 0, fmt.Errorf("sql: misuse of aggregate: %s()", t.Fn)
		}
		return e.refDepths(t.Args...)
	}
	return 0, nil
}

func (e *env) refDepths(xs ...Expr) (int, error) {
	d := 0
	for _, x := range xs {
		dx, err := e.refDepth(x)
		if err != nil {
			return 0, err
		}
		d = max(d, dx)
	}
	return d, nil
}

// column is the position in binding i's schema of the column x names, if
// x is a column of binding i.
func (e *env) column(x Expr, i int) (int, bool) {
	c, ok := x.(ColRef)
	if !ok {
		return -1, false
	}
	b, col, err := e.lookup(c)
	return col, err == nil && b == i
}

// before reports whether x names no binding from position i on, so that
// it can be evaluated before binding i's scan.
func (e *env) before(x Expr, i int) bool {
	d, err := e.refDepth(x)
	return err == nil && d <= i
}

// eval evaluates expr in env with SQL NULL propagation.
func (e *env) eval(x Expr) (Value, error) {
	switch t := x.(type) {
	case Lit:
		return t.V, nil
	case Param:
		if t.N >= len(e.params) {
			return Null, fmt.Errorf("sql: missing argument for parameter %d", t.N+1)
		}
		return e.params[t.N], nil
	case ColRef:
		return e.resolve(t)
	case BinOp:
		return e.evalBinOp(t)
	case UnOp:
		v, err := e.eval(t.E)
		if err != nil {
			return Null, err
		}
		switch t.Op {
		case "-":
			switch v.T {
			case TypeNull:
				return Null, nil
			case TypeInt:
				return Int(-v.I), nil
			case TypeFloat:
				return Float(-v.F), nil
			}
			return Null, fmt.Errorf("sql: cannot negate %s", v.T)
		case "not":
			if v.IsNull() {
				return Null, nil
			}
			if v.Truthy() {
				return Int(0), nil
			}
			return Int(1), nil
		}
		return Null, fmt.Errorf("sql: unknown unary op %s", t.Op)
	case IsNull:
		v, err := e.eval(t.E)
		if err != nil {
			return Null, err
		}
		res := v.IsNull()
		if t.Not {
			res = !res
		}
		if res {
			return Int(1), nil
		}
		return Int(0), nil
	case InList:
		v, err := e.eval(t.E)
		if err != nil {
			return Null, err
		}
		if v.IsNull() {
			return Null, nil
		}
		anyNull := false
		for _, le := range t.List {
			lv, err := e.eval(le)
			if err != nil {
				return Null, err
			}
			if lv.IsNull() {
				anyNull = true
				continue
			}
			if Compare(v, lv) == 0 {
				if t.Not {
					return Int(0), nil
				}
				return Int(1), nil
			}
		}
		if anyNull {
			return Null, nil
		}
		if t.Not {
			return Int(1), nil
		}
		return Int(0), nil
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
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return Null, nil
		}
		in := Compare(v, lo) >= 0 && Compare(v, hi) <= 0
		if t.Not {
			in = !in
		}
		if in {
			return Int(1), nil
		}
		return Int(0), nil
	case Call:
		return e.evalScalarCall(t)
	case aggRef:
		return e.aggs[t.N], nil
	case Star:
		return Null, fmt.Errorf("sql: * is only valid as a projection")
	}
	return Null, fmt.Errorf("sql: cannot evaluate %T", x)
}

func boolVal(b bool) Value {
	if b {
		return Int(1)
	}
	return Int(0)
}

func (e *env) evalBinOp(t BinOp) (Value, error) {
	// AND / OR use three-valued logic with short-circuiting.
	switch t.Op {
	case "and":
		l, err := e.eval(t.L)
		if err != nil {
			return Null, err
		}
		if !l.IsNull() && !l.Truthy() {
			return Int(0), nil
		}
		r, err := e.eval(t.R)
		if err != nil {
			return Null, err
		}
		if !r.IsNull() && !r.Truthy() {
			return Int(0), nil
		}
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		return Int(1), nil
	case "or":
		l, err := e.eval(t.L)
		if err != nil {
			return Null, err
		}
		if !l.IsNull() && l.Truthy() {
			return Int(1), nil
		}
		r, err := e.eval(t.R)
		if err != nil {
			return Null, err
		}
		if !r.IsNull() && r.Truthy() {
			return Int(1), nil
		}
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		return Int(0), nil
	}

	l, err := e.eval(t.L)
	if err != nil {
		return Null, err
	}
	r, err := e.eval(t.R)
	if err != nil {
		return Null, err
	}
	switch t.Op {
	case "=", "!=", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		c := Compare(l, r)
		switch t.Op {
		case "=":
			return boolVal(c == 0), nil
		case "!=":
			return boolVal(c != 0), nil
		case "<":
			return boolVal(c < 0), nil
		case "<=":
			return boolVal(c <= 0), nil
		case ">":
			return boolVal(c > 0), nil
		case ">=":
			return boolVal(c >= 0), nil
		}
	case "like":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		return boolVal(likeMatch(r.String(), l.String())), nil
	case "||":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		return Text(l.String() + r.String()), nil
	case "+", "-", "*", "/", "%":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		return arith(t.Op, l, r)
	}
	return Null, fmt.Errorf("sql: unknown operator %s", t.Op)
}

func arith(op string, l, r Value) (Value, error) {
	if (l.T != TypeInt && l.T != TypeFloat) || (r.T != TypeInt && r.T != TypeFloat) {
		return Null, fmt.Errorf("sql: %s on non-numeric values", op)
	}
	if l.T == TypeInt && r.T == TypeInt {
		switch op {
		case "+":
			return Int(l.I + r.I), nil
		case "-":
			return Int(l.I - r.I), nil
		case "*":
			return Int(l.I * r.I), nil
		case "/":
			if r.I == 0 {
				return Null, nil // SQL: division by zero yields NULL
			}
			return Int(l.I / r.I), nil
		case "%":
			if r.I == 0 {
				return Null, nil
			}
			return Int(l.I % r.I), nil
		}
	}
	lf, rf := l.Num(), r.Num()
	switch op {
	case "+":
		return Float(lf + rf), nil
	case "-":
		return Float(lf - rf), nil
	case "*":
		return Float(lf * rf), nil
	case "/":
		if rf == 0 {
			return Null, nil
		}
		return Float(lf / rf), nil
	case "%":
		if rf == 0 {
			return Null, nil
		}
		return Float(math.Mod(lf, rf)), nil
	}
	return Null, fmt.Errorf("sql: unknown arithmetic op %s", op)
}

// likeMatch implements SQL LIKE: % matches any run, _ one character.
// Matching is case-insensitive, as in SQLite's default.
func likeMatch(pattern, s string) bool {
	return likeRec(strings.ToLower(pattern), strings.ToLower(s))
}

func likeRec(p, s string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(p, s[i:]) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			p, s = p[1:], s[1:]
		default:
			if len(s) == 0 || p[0] != s[0] {
				return false
			}
			p, s = p[1:], s[1:]
		}
	}
	return len(s) == 0
}

// evalScalarCall evaluates non-aggregate functions. The plan rewrites
// aggregates into aggRefs (rewriteAggs); reaching one here is an error.
func (e *env) evalScalarCall(t Call) (Value, error) {
	if isAggregate(t.Fn) {
		return Null, fmt.Errorf("sql: aggregate %s() in non-aggregate context", t.Fn)
	}
	args := make([]Value, len(t.Args))
	for i, a := range t.Args {
		v, err := e.eval(a)
		if err != nil {
			return Null, err
		}
		args[i] = v
	}
	switch t.Fn {
	case "length":
		if len(args) != 1 {
			return Null, fmt.Errorf("sql: length() takes one argument")
		}
		switch args[0].T {
		case TypeNull:
			return Null, nil
		case TypeText:
			return Int(int64(len(args[0].S))), nil
		case TypeBlob:
			return Int(int64(len(args[0].B))), nil
		}
		return Int(int64(len(args[0].String()))), nil
	case "abs":
		if len(args) != 1 {
			return Null, fmt.Errorf("sql: abs() takes one argument")
		}
		switch args[0].T {
		case TypeNull:
			return Null, nil
		case TypeInt:
			if args[0].I < 0 {
				return Int(-args[0].I), nil
			}
			return args[0], nil
		case TypeFloat:
			return Float(math.Abs(args[0].F)), nil
		}
		return Null, fmt.Errorf("sql: abs() on non-numeric value")
	case "upper":
		if len(args) != 1 || args[0].IsNull() {
			return Null, nil
		}
		return Text(strings.ToUpper(args[0].String())), nil
	case "lower":
		if len(args) != 1 || args[0].IsNull() {
			return Null, nil
		}
		return Text(strings.ToLower(args[0].String())), nil
	case "coalesce":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return Null, nil
	}
	return Null, fmt.Errorf("sql: unknown function %s", t.Fn)
}
