package sql

import (
	"fmt"
	"strings"
)

// tokKind enumerates token kinds.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokFloat
	tokString
	tokBlob // x'ab' hex literal
	tokSym  // punctuation and operators
	tokParam
)

type token struct {
	kind tokKind
	text string // identifier (lowercased for keywords), symbol, or literal text
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

var keywords = map[string]bool{
	"select": true, "from": true, "where": true, "insert": true, "into": true,
	"values": true, "update": true, "set": true, "delete": true, "create": true,
	"drop": true, "table": true, "index": true, "unique": true, "on": true,
	"primary": true, "key": true, "not": true, "null": true, "and": true,
	"or": true, "order": true, "by": true, "asc": true, "desc": true,
	"limit": true, "offset": true, "group": true, "having": true, "as": true,
	"join": true, "inner": true, "left": true, "begin": true, "commit": true,
	"rollback": true, "integer": true, "int": true, "real": true, "float": true,
	"text": true, "blob": true, "varchar": true, "like": true, "in": true,
	"is": true, "between": true, "distinct": true, "if": true, "exists": true,
	"default": true, "count": true, "sum": true, "avg": true, "min": true,
	"max": true, "transaction": true, "explain": true,
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes src. It returns a descriptive error with the offending
// position on bad input.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case isDigit(c) || (c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
			l.lexNumber()
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case (c == 'x' || c == 'X') && l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'':
			if err := l.lexBlob(); err != nil {
				return nil, err
			}
		case isIdentStart(c):
			l.lexIdent()
		case c == '"':
			if err := l.lexQuotedIdent(); err != nil {
				return nil, err
			}
		case c == '?':
			l.pos++
			l.toks = append(l.toks, token{kind: tokParam, text: "?", pos: start})
		default:
			if err := l.lexSymbol(); err != nil {
				return nil, err
			}
		}
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// -- line comments
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		return
	}
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || (c|0x20) >= 'a' && (c|0x20) <= 'z' }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) }

func (l *lexer) lexNumber() {
	start := l.pos
	isFloat := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if isDigit(c) {
			l.pos++
		} else if c == '.' && !isFloat {
			isFloat = true
			l.pos++
		} else if (c == 'e' || c == 'E') && l.pos > start {
			isFloat = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
		} else {
			break
		}
	}
	kind := tokInt
	if isFloat {
		kind = tokFloat
	}
	l.toks = append(l.toks, token{kind: kind, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				sb.WriteByte('\'') // '' escape
				l.pos += 2
				continue
			}
			l.pos++
			l.toks = append(l.toks, token{kind: tokString, text: sb.String(), pos: start})
			return nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sql: unterminated string literal at %d", start)
}

func (l *lexer) lexBlob() error {
	start := l.pos
	l.pos += 2 // x'
	hexStart := l.pos
	for l.pos < len(l.src) && l.src[l.pos] != '\'' {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return fmt.Errorf("sql: unterminated blob literal at %d", start)
	}
	hex := l.src[hexStart:l.pos]
	l.pos++
	if len(hex)%2 != 0 {
		return fmt.Errorf("sql: odd-length blob literal at %d", start)
	}
	l.toks = append(l.toks, token{kind: tokBlob, text: hex, pos: start})
	return nil
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	text := l.src[start:l.pos]
	lower := strings.ToLower(text)
	if keywords[lower] {
		l.toks = append(l.toks, token{kind: tokKeyword, text: lower, pos: start})
	} else {
		l.toks = append(l.toks, token{kind: tokIdent, text: lower, pos: start})
	}
}

func (l *lexer) lexQuotedIdent() error {
	start := l.pos
	l.pos++
	idStart := l.pos
	for l.pos < len(l.src) && l.src[l.pos] != '"' {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return fmt.Errorf("sql: unterminated quoted identifier at %d", start)
	}
	text := l.src[idStart:l.pos]
	l.pos++
	l.toks = append(l.toks, token{kind: tokIdent, text: strings.ToLower(text), pos: start})
	return nil
}

func (l *lexer) lexSymbol() error {
	start := l.pos
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "<>", "!=", "||":
		l.pos += 2
		l.toks = append(l.toks, token{kind: tokSym, text: two, pos: start})
		return nil
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', ';', '*', '+', '-', '/', '%', '=', '<', '>', '.':
		l.pos++
		l.toks = append(l.toks, token{kind: tokSym, text: string(c), pos: start})
		return nil
	}
	return fmt.Errorf("sql: unexpected character %q at %d", c, start)
}
