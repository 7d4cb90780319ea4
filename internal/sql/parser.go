package sql

import (
	"encoding/hex"
	"fmt"
	"strconv"
)

// The parser is recursive descent over the lexer's tokens; every
// production returns only its node. The first error ends the parse: fail
// panics with a parseError, and parse — the one entry point — recovers
// it and returns the error it carries. Any other panic is a bug and is
// re-raised there, so a parseError never leaves this file.

// Parse parses one SQL statement (a trailing semicolon is allowed).
func Parse(src string) (Stmt, error) {
	stmt, _, err := parse(src)
	return stmt, err
}

// parse lexes and parses src as one statement, an optional ';' and the
// end of input, and also returns the number of ? placeholders in it.
func parse(src string) (stmt Stmt, nparams int, err error) {
	toks, err := lex(src)
	if err != nil {
		return nil, 0, err
	}
	p := &parser{toks: toks}
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(parseError)
			if !ok {
				panic(r)
			}
			stmt, nparams, err = nil, 0, pe.err
		}
	}()
	stmt = p.parseStmt()
	p.accept(tokSym, ";")
	if p.cur().kind != tokEOF {
		p.fail("sql: unexpected %s after statement", p.cur())
	}
	return stmt, p.params, nil
}

// parseError carries the error that ended a parse from fail to parse.
type parseError struct{ err error }

type parser struct {
	toks   []token
	pos    int
	params int
}

// fail ends the parse with a formatted error.
func (p *parser) fail(format string, args ...any) {
	panic(parseError{fmt.Errorf(format, args...)})
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

// accept consumes the current token if it matches.
func (p *parser) accept(kind tokKind, text string) bool {
	t := p.cur()
	if t.kind == kind && (text == "" || t.text == text) {
		p.pos++
		return true
	}
	return false
}

// acceptKw consumes a keyword.
func (p *parser) acceptKw(kw string) bool { return p.accept(tokKeyword, kw) }

// at reports whether the token off places past the current one is kind
// with text.
func (p *parser) at(off int, kind tokKind, text string) bool {
	i := p.pos + off
	return i < len(p.toks) && p.toks[i].kind == kind && p.toks[i].text == text
}

// expect consumes and returns the current token, which must match.
func (p *parser) expect(kind tokKind, text string) token {
	t := p.cur()
	if !p.accept(kind, text) {
		want := text
		if want == "" {
			want = map[tokKind]string{tokIdent: "identifier", tokInt: "integer"}[kind]
		}
		p.fail("sql: expected %s, got %s", want, t)
	}
	return t
}

func (p *parser) expectKw(kw string) { p.expect(tokKeyword, kw) }

func (p *parser) ident() string { return p.expect(tokIdent, "").text }

// list parses one or more items separated by commas.
func list[T any](p *parser, item func() T) []T {
	var out []T
	for {
		out = append(out, item())
		if !p.accept(tokSym, ",") {
			return out
		}
	}
}

// parenList parses a parenthesised list.
func parenList[T any](p *parser, item func() T) []T {
	p.expect(tokSym, "(")
	out := list(p, item)
	p.expect(tokSym, ")")
	return out
}

func (p *parser) parseStmt() Stmt {
	t := p.cur()
	if t.kind != tokKeyword {
		p.fail("sql: expected statement, got %s", t)
	}
	switch t.text {
	case "explain":
		p.next()
		inner := p.parseStmt()
		switch inner.(type) {
		case Select, Update, Delete:
			return Explain{Stmt: inner}
		}
		p.fail("sql: EXPLAIN supports SELECT, UPDATE, and DELETE")
	case "create":
		return p.parseCreate()
	case "drop":
		return p.parseDrop()
	case "insert":
		return p.parseInsert()
	case "select":
		return p.parseSelect()
	case "update":
		return p.parseUpdate()
	case "delete":
		return p.parseDelete()
	case "begin":
		p.next()
		p.acceptKw("transaction")
		return Begin{}
	case "commit":
		p.next()
		return Commit{}
	case "rollback":
		p.next()
		return Rollback{}
	}
	p.fail("sql: unsupported statement %s", t)
	return nil
}

func (p *parser) parseCreate() Stmt {
	p.next() // create
	unique := p.acceptKw("unique")
	switch {
	case p.acceptKw("table"):
		if unique {
			p.fail("sql: UNIQUE TABLE is not a thing")
		}
		ine := p.parseIfNotExists()
		name := p.ident()
		return CreateTable{Name: name, IfNotExists: ine, Cols: parenList(p, p.parseColDef)}
	case p.acceptKw("index"):
		ine := p.parseIfNotExists()
		name := p.ident()
		p.expectKw("on")
		table := p.ident()
		return CreateIndex{Name: name, Table: table, Unique: unique, IfNotExists: ine, Cols: parenList(p, p.ident)}
	}
	p.fail("sql: expected TABLE or INDEX after CREATE, got %s", p.cur())
	return nil
}

func (p *parser) parseIfNotExists() bool {
	if p.acceptKw("if") {
		p.acceptKw("not")
		p.acceptKw("exists")
		return true
	}
	return false
}

func (p *parser) parseColDef() ColDef {
	cd := ColDef{Name: p.ident()}
	t := p.cur()
	if t.kind != tokKeyword {
		p.fail("sql: expected column type, got %s", t)
	}
	switch t.text {
	case "integer", "int":
		cd.Type = TypeInt
	case "real", "float":
		cd.Type = TypeFloat
	case "text", "varchar":
		cd.Type = TypeText
	case "blob":
		cd.Type = TypeBlob
	default:
		p.fail("sql: unknown column type %s", t)
	}
	p.next()
	// VARCHAR(255)-style size, ignored.
	if p.accept(tokSym, "(") {
		p.expect(tokInt, "")
		p.expect(tokSym, ")")
	}
	for {
		switch {
		case p.acceptKw("primary"):
			p.expectKw("key")
			cd.PrimaryKey = true
		case p.acceptKw("not"):
			p.expectKw("null")
			cd.NotNull = true
		default:
			return cd
		}
	}
}

func (p *parser) parseDrop() Stmt {
	p.next() // drop
	switch {
	case p.acceptKw("table"):
		ie := p.parseIfExists()
		return DropTable{Name: p.ident(), IfExists: ie}
	case p.acceptKw("index"):
		ie := p.parseIfExists()
		return DropIndex{Name: p.ident(), IfExists: ie}
	}
	p.fail("sql: expected TABLE or INDEX after DROP")
	return nil
}

func (p *parser) parseIfExists() bool {
	if p.acceptKw("if") {
		p.acceptKw("exists")
		return true
	}
	return false
}

func (p *parser) parseInsert() Stmt {
	p.next() // insert
	p.expectKw("into")
	st := Insert{Table: p.ident()}
	if p.at(0, tokSym, "(") {
		st.Cols = parenList(p, p.ident)
	}
	p.expectKw("values")
	st.Rows = list(p, func() []Expr { return parenList(p, p.parseExpr) })
	return st
}

func (p *parser) parseSelect() Stmt {
	p.next() // select
	st := Select{}
	st.Distinct = p.acceptKw("distinct")
	st.Items = list(p, p.parseSelectItem)
	if p.acceptKw("from") {
		tr := p.parseTableRef()
		st.From = &tr
		for {
			inner := p.acceptKw("inner")
			if !p.acceptKw("join") {
				if inner {
					p.fail("sql: expected JOIN after INNER")
				}
				break
			}
			right := p.parseTableRef()
			p.expectKw("on")
			st.Joins = append(st.Joins, Join{Right: right, On: p.parseExpr()})
		}
	}
	if p.acceptKw("where") {
		st.Where = p.parseExpr()
	}
	if p.acceptKw("group") {
		p.expectKw("by")
		st.GroupBy = list(p, p.parseExpr)
	}
	if p.acceptKw("having") {
		st.Having = p.parseExpr()
	}
	if p.acceptKw("order") {
		p.expectKw("by")
		st.OrderBy = list(p, func() OrderItem {
			item := OrderItem{E: p.parseExpr()}
			if p.acceptKw("desc") {
				item.Desc = true
			} else {
				p.acceptKw("asc")
			}
			return item
		})
	}
	if p.acceptKw("limit") {
		st.Limit = p.parseExpr()
		if p.acceptKw("offset") {
			st.Offset = p.parseExpr()
		}
	}
	return st
}

func (p *parser) parseSelectItem() SelectItem {
	// *, table.*
	if p.accept(tokSym, "*") {
		return SelectItem{E: Star{}}
	}
	if p.cur().kind == tokIdent && p.at(1, tokSym, ".") && p.at(2, tokSym, "*") {
		table := p.next().text
		p.next() // .
		p.next() // *
		return SelectItem{E: Star{Table: table}}
	}
	item := SelectItem{E: p.parseExpr()}
	item.Alias = p.parseAlias()
	return item
}

// parseAlias parses an optional [AS] alias.
func (p *parser) parseAlias() string {
	if p.acceptKw("as") {
		return p.ident()
	}
	if p.cur().kind == tokIdent {
		return p.next().text
	}
	return ""
}

func (p *parser) parseTableRef() TableRef {
	tr := TableRef{Name: p.ident()}
	tr.Alias = p.parseAlias()
	return tr
}

func (p *parser) parseUpdate() Stmt {
	p.next() // update
	st := Update{Table: p.ident()}
	p.expectKw("set")
	st.Set = list(p, func() Assignment {
		col := p.ident()
		p.expect(tokSym, "=")
		return Assignment{Col: col, E: p.parseExpr()}
	})
	if p.acceptKw("where") {
		st.Where = p.parseExpr()
	}
	return st
}

func (p *parser) parseDelete() Stmt {
	p.next() // delete
	p.expectKw("from")
	st := Delete{Table: p.ident()}
	if p.acceptKw("where") {
		st.Where = p.parseExpr()
	}
	return st
}

// --- expressions (precedence climbing) ---

func (p *parser) parseExpr() Expr { return p.parseOr() }

func (p *parser) parseOr() Expr {
	l := p.parseAnd()
	for p.acceptKw("or") {
		l = BinOp{Op: "or", L: l, R: p.parseAnd()}
	}
	return l
}

func (p *parser) parseAnd() Expr {
	l := p.parseNot()
	for p.acceptKw("and") {
		l = BinOp{Op: "and", L: l, R: p.parseNot()}
	}
	return l
}

func (p *parser) parseNot() Expr {
	if p.acceptKw("not") {
		return UnOp{Op: "not", E: p.parseNot()}
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() Expr {
	l := p.parseAdditive()
	// IS [NOT] NULL
	if p.acceptKw("is") {
		not := p.acceptKw("not")
		p.expectKw("null")
		return IsNull{E: l, Not: not}
	}
	not := false
	if p.at(0, tokKeyword, "not") &&
		(p.at(1, tokKeyword, "in") || p.at(1, tokKeyword, "between") || p.at(1, tokKeyword, "like")) {
		p.next()
		not = true
	}
	switch {
	case p.acceptKw("in"):
		return InList{E: l, List: parenList(p, p.parseExpr), Not: not}
	case p.acceptKw("between"):
		lo := p.parseAdditive()
		p.expectKw("and")
		return Between{E: l, Lo: lo, Hi: p.parseAdditive(), Not: not}
	case p.acceptKw("like"):
		e := Expr(BinOp{Op: "like", L: l, R: p.parseAdditive()})
		if not {
			e = UnOp{Op: "not", E: e}
		}
		return e
	}
	t := p.cur()
	if t.kind == tokSym {
		switch t.text {
		case "=", "<", "<=", ">", ">=":
			p.next()
			return BinOp{Op: t.text, L: l, R: p.parseAdditive()}
		case "!=", "<>":
			p.next()
			return BinOp{Op: "!=", L: l, R: p.parseAdditive()}
		}
	}
	return l
}

func (p *parser) parseAdditive() Expr {
	l := p.parseMultiplicative()
	for {
		t := p.cur()
		if t.kind != tokSym || (t.text != "+" && t.text != "-" && t.text != "||") {
			return l
		}
		p.next()
		l = BinOp{Op: t.text, L: l, R: p.parseMultiplicative()}
	}
}

func (p *parser) parseMultiplicative() Expr {
	l := p.parseUnary()
	for {
		t := p.cur()
		if t.kind != tokSym || (t.text != "*" && t.text != "/" && t.text != "%") {
			return l
		}
		p.next()
		l = BinOp{Op: t.text, L: l, R: p.parseUnary()}
	}
}

func (p *parser) parseUnary() Expr {
	if p.accept(tokSym, "-") {
		return UnOp{Op: "-", E: p.parseUnary()}
	}
	if p.accept(tokSym, "+") {
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() Expr {
	t := p.cur()
	switch t.kind {
	case tokInt:
		p.next()
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			p.fail("sql: bad integer %q", t.text)
		}
		return Lit{V: Int(i)}
	case tokFloat:
		p.next()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			p.fail("sql: bad number %q", t.text)
		}
		return Lit{V: Float(f)}
	case tokString:
		p.next()
		return Lit{V: Text(t.text)}
	case tokBlob:
		p.next()
		b, err := hex.DecodeString(t.text)
		if err != nil {
			p.fail("sql: bad blob literal")
		}
		return Lit{V: Blob(b)}
	case tokParam:
		p.next()
		p.params++
		return Param{N: p.params - 1}
	case tokKeyword:
		switch t.text {
		case "null":
			p.next()
			return Lit{V: Null}
		case "count", "sum", "avg", "min", "max":
			return p.parseCall(t.text)
		case "not":
			p.next()
			return UnOp{Op: "not", E: p.parseNot()}
		}
	case tokIdent:
		// function call or column ref
		if p.at(1, tokSym, "(") {
			return p.parseCall(t.text)
		}
		p.next()
		if p.accept(tokSym, ".") {
			return ColRef{Table: t.text, Col: p.ident()}
		}
		return ColRef{Col: t.text}
	case tokSym:
		if p.accept(tokSym, "(") {
			e := p.parseExpr()
			p.expect(tokSym, ")")
			return e
		}
	}
	p.fail("sql: unexpected %s in expression", t)
	return nil
}

func (p *parser) parseCall(fn string) Expr {
	p.next() // name
	p.expect(tokSym, "(")
	if fn == "count" && p.accept(tokSym, "*") {
		p.expect(tokSym, ")")
		return Call{Fn: fn, Star: true}
	}
	call := Call{Fn: fn, Distinct: p.acceptKw("distinct")}
	if !p.accept(tokSym, ")") {
		call.Args = list(p, p.parseExpr)
		p.expect(tokSym, ")")
	}
	return call
}
