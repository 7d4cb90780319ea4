// Package wirecodec checks Encode/Decode symmetry for the hand-rolled
// wire codecs in internal/kv and internal/wire. Every message is a
// flat sequence of typed primitives written through wire.Buffer and
// read back through wire.Reader; the two sides are written by hand,
// so nothing structural stops an encoder writing a uvarint where the
// decoder reads a uint64, or a field being written and never read.
// This analyzer extracts the ordered primitive-kind sequence from both
// sides of each pair and diffs them.
//
// Pairing is by name: the method (m *T) Encode() pairs with the
// function DecodeT; helper pairs like encodeOps/decodeOps and
// EncodeReplRecord/DecodeReplRecord pair by their shared suffix. A
// helper call inside a codec body is matched as one unit against the
// other side's corresponding helper call.
//
// The second rule is that every message has ONE layout: no Decode
// function may read a field only `if r.Remaining() > 0`. A field the
// encoder always writes is always read, so a buffer truncated at any
// field fails to decode instead of passing for a shorter message.
//
// Codec bodies whose wire operations sit under data-dependent
// conditionals (e.g. the per-kind switch in EncodeOp/DecodeOp) are
// skipped: their symmetry is not a flat sequence and stays the
// review's job. Loops are compared structurally: a counted or ranged
// loop on one side must match a loop with the same per-iteration
// sequence on the other.
package wirecodec

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"yesquel/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "wirecodec",
	Doc:  "Encode/Decode primitive-order symmetry and the one-layout rule (no Remaining()-guarded reads) for wire codecs",
	Run:  run,
}

// item is one element of a codec's extracted wire-op sequence.
type item struct {
	kind     string // primitive kind, or "sub:<name>" for a helper call
	loop     bool
	children []item
	pos      ast.Node
}

// bufferOps maps wire.Buffer methods to primitive kinds.
var bufferOps = map[string]string{
	"PutUvarint": "uvarint",
	"PutVarint":  "varint",
	"PutUint64":  "uint64",
	"PutUint32":  "uint32",
	"PutByte":    "byte",
	"PutBool":    "bool",
	"PutFloat64": "float64",
	"PutBytes":   "bytes",
	"PutString":  "string",
}

// readerOps maps wire.Reader methods to the same kinds.
var readerOps = map[string]string{
	"Uvarint":   "uvarint",
	"Varint":    "varint",
	"Uint64":    "uint64",
	"Uint32":    "uint32",
	"Byte":      "byte",
	"Bool":      "bool",
	"Float64":   "float64",
	"Bytes":     "bytes",
	"BytesCopy": "bytes",
	"String":    "string",
}

type codec struct {
	name string // display name of the function
	fd   *ast.FuncDecl
	seq  []item
	ok   bool // extraction succeeded (no data-dependent conditional)
}

func run(pass *analysis.Pass) error {
	ex := &extractor{pass: pass}
	encoders := make(map[string]*codec)
	decoders := make(map[string]*codec)

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if key, isEnc, ok := codecKey(fd); ok {
				c := &codec{name: fd.Name.Name, fd: fd}
				if fd.Recv != nil {
					c.name = recvTypeName(fd) + "." + fd.Name.Name
				}
				c.seq, c.ok = ex.extract(fd.Body.List, isEnc)
				if isEnc {
					encoders[key] = c
				} else {
					decoders[key] = c
					ex.checkOneLayout(c)
				}
			}
		}
	}

	for key, enc := range encoders {
		dec, ok := decoders[key]
		if !ok || !enc.ok || !dec.ok {
			continue
		}
		if msg, pos := compare(enc.seq, dec.seq, enc.name, dec.name); msg != "" {
			if pos == nil {
				pos = dec.fd.Name
			}
			pass.Reportf(pos.Pos(), "%s", msg)
		}
	}
	return nil
}

// checkOneLayout reports every read in dec that is guarded by a
// Remaining() condition.
func (ex *extractor) checkOneLayout(dec *codec) {
	ast.Inspect(dec.fd.Body, func(n ast.Node) bool {
		if s, ok := n.(*ast.IfStmt); ok && isRemainingGuard(s.Cond) && ex.containsWireOps(s.Body, false) {
			ex.pass.Reportf(s.Pos(),
				"%s reads a field only when Remaining() says it is there; every message has one layout (read it unconditionally)",
				dec.name)
		}
		return true
	})
}

// codecKey classifies fd as an encoder or decoder and returns the
// pairing key: the lowercased type/suffix name.
func codecKey(fd *ast.FuncDecl) (key string, isEnc, ok bool) {
	name := fd.Name.Name
	if fd.Recv != nil {
		if name == "Encode" {
			return strings.ToLower(recvTypeName(fd)), true, true
		}
		return "", false, false
	}
	lower := strings.ToLower(name)
	switch {
	case strings.HasPrefix(lower, "encode") && len(name) > len("encode"):
		return lower[len("encode"):], true, true
	case strings.HasPrefix(lower, "decode") && len(name) > len("decode"):
		return lower[len("decode"):], false, true
	}
	return "", false, false
}

func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return "?"
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}

type extractor struct {
	pass *analysis.Pass
}

// extract linearizes the wire operations in stmts. ok is false when a
// data-dependent conditional contains wire operations (the codec is
// not a flat sequence and is skipped).
func (ex *extractor) extract(stmts []ast.Stmt, isEnc bool) (seq []item, ok bool) {
	ok = true
	for _, s := range stmts {
		items, sok := ex.extractStmt(s, isEnc)
		if !sok {
			return nil, false
		}
		seq = append(seq, items...)
	}
	return seq, ok
}

func (ex *extractor) extractStmt(s ast.Stmt, isEnc bool) ([]item, bool) {
	switch s := s.(type) {
	case nil:
		return nil, true
	case *ast.ExprStmt:
		return ex.extractExpr(s.X, isEnc), true
	case *ast.AssignStmt:
		var items []item
		for _, rhs := range s.Rhs {
			items = append(items, ex.extractExpr(rhs, isEnc)...)
		}
		return items, true
	case *ast.DeclStmt:
		return nil, true
	case *ast.ReturnStmt:
		var items []item
		for _, r := range s.Results {
			items = append(items, ex.extractExpr(r, isEnc)...)
		}
		return items, true
	case *ast.IfStmt:
		items, ok := ex.extractStmt(s.Init, isEnc)
		if !ok {
			return nil, false
		}
		// A conditional is fine while it performs no wire ops
		// (error checks, count-sanity guards); otherwise the codec is
		// not a flat sequence.
		if ex.containsWireOps(s.Body, isEnc) || (s.Else != nil && ex.containsWireOps(s.Else, isEnc)) {
			return nil, false
		}
		return items, true
	case *ast.ForStmt:
		items, ok := ex.extractStmt(s.Init, isEnc)
		if !ok {
			return nil, false
		}
		inner, iok := ex.extract(s.Body.List, isEnc)
		if !iok {
			return nil, false
		}
		if len(inner) > 0 {
			items = append(items, item{kind: "loop", loop: true, children: inner, pos: s})
		}
		return items, true
	case *ast.RangeStmt:
		inner, iok := ex.extract(s.Body.List, isEnc)
		if !iok {
			return nil, false
		}
		if len(inner) > 0 {
			return []item{{kind: "loop", loop: true, children: inner, pos: s}}, true
		}
		return nil, true
	default:
		// switch/select/go/defer/labeled: opaque. Wire ops inside make
		// the codec non-flat.
		if ex.containsWireOps(s, isEnc) {
			return nil, false
		}
		return nil, true
	}
}

// extractExpr pulls wire-op items out of one expression in evaluation
// order (arguments first for nested calls is irrelevant here: codec
// bodies never nest two wire calls in one expression).
func (ex *extractor) extractExpr(e ast.Expr, isEnc bool) []item {
	var items []item
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if it, ok := ex.classify(call, isEnc); ok {
			items = append(items, it)
		}
		return true
	})
	return items
}

// classify maps a call to a wire-op item: a Buffer/Reader primitive
// or a helper codec call.
func (ex *extractor) classify(call *ast.CallExpr, isEnc bool) (item, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if ok {
		if recv := ex.wireRecv(sel.X); recv != "" {
			ops := bufferOps
			if recv == "Reader" {
				ops = readerOps
			}
			if isEnc == (recv == "Reader") {
				// An encoder reading or a decoder writing would be its
				// own kind of wrong; stay out of scope here.
				return item{}, false
			}
			if kind, ok := ops[sel.Sel.Name]; ok {
				return item{kind: kind, pos: call}, true
			}
			return item{}, false
		}
		// Method helper: rec.Encode() pairs with DecodeRec(...) by the
		// receiver's type name.
		if sel.Sel.Name == "Encode" && isEnc {
			if tn := ex.typeName(sel.X); tn != "" {
				return item{kind: "sub:" + strings.ToLower(tn), pos: call}, true
			}
		}
		return item{}, false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return item{}, false
	}
	lower := strings.ToLower(id.Name)
	prefix := "decode"
	if isEnc {
		prefix = "encode"
	}
	if strings.HasPrefix(lower, prefix) && len(lower) > len(prefix) {
		return item{kind: "sub:" + lower[len(prefix):], pos: call}, true
	}
	return item{}, false
}

// wireRecv reports whether e has type wire.Buffer or wire.Reader
// (possibly via pointer), returning the type's name.
func (ex *extractor) wireRecv(e ast.Expr) string {
	tv, ok := ex.pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return ""
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	pkg := n.Obj().Pkg().Path()
	if pkg != "yesquel/internal/wire" && !strings.HasSuffix(pkg, "/wire") {
		return ""
	}
	name := n.Obj().Name()
	if name == "Buffer" || name == "Reader" {
		return name
	}
	return ""
}

func (ex *extractor) typeName(e ast.Expr) string {
	tv, ok := ex.pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return ""
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

func (ex *extractor) containsWireOps(n ast.Node, isEnc bool) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if found {
			return false
		}
		if call, ok := c.(*ast.CallExpr); ok {
			if _, ok := ex.classify(call, isEnc); ok {
				found = true
			}
		}
		return true
	})
	return found
}

// isRemainingGuard matches conditions on r.Remaining().
func isRemainingGuard(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Remaining" {
				found = true
			}
		}
		return true
	})
	return found
}

// compare diffs the two sequences and returns a description of the
// first asymmetry ("" when symmetric).
func compare(enc, dec []item, encName, decName string) (string, ast.Node) {
	n := len(enc)
	if len(dec) < n {
		n = len(dec)
	}
	for i := 0; i < n; i++ {
		e, d := enc[i], dec[i]
		if e.loop != d.loop {
			return fmt.Sprintf("wire asymmetry: %s op %d is %s but %s op %d is %s",
				encName, i+1, describe(e), decName, i+1, describe(d)), d.pos
		}
		if e.loop {
			if msg, pos := compare(e.children, d.children, encName+" (loop body)", decName+" (loop body)"); msg != "" {
				return msg, pos
			}
			continue
		}
		if e.kind != d.kind {
			return fmt.Sprintf("wire asymmetry: %s writes %s at op %d but %s reads %s",
				encName, describe(e), i+1, decName, describe(d)), d.pos
		}
	}
	if len(enc) != len(dec) {
		if len(enc) > len(dec) {
			return fmt.Sprintf("wire asymmetry: %s writes %d ops but %s reads only %d (first unread: %s)",
				encName, len(enc), decName, len(dec), describe(enc[len(dec)])), enc[len(dec)].pos
		}
		return fmt.Sprintf("wire asymmetry: %s reads %d ops but %s writes only %d (first excess read: %s)",
			decName, len(dec), encName, len(enc), describe(dec[len(enc)])), dec[len(enc)].pos
	}
	return "", nil
}

func describe(it item) string {
	if it.loop {
		return "a loop"
	}
	if strings.HasPrefix(it.kind, "sub:") {
		return "nested codec " + strings.TrimPrefix(it.kind, "sub:")
	}
	return it.kind
}
