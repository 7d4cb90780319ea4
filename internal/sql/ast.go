package sql

// Abstract syntax for the supported dialect. Statements and expressions
// are plain structs; the planner consumes them directly.

// Stmt is any SQL statement.
type Stmt interface{ stmt() }

// Expr is any expression.
type Expr interface{ expr() }

// --- expressions ---

// Lit is a literal value.
type Lit struct{ V Value }

// Param is a ? placeholder, numbered left to right from 0.
type Param struct{ N int }

// ColRef names a column, optionally qualified by table (or alias).
type ColRef struct {
	Table string // "" if unqualified
	Col   string
}

// BinOp is a binary operation.
type BinOp struct {
	Op   string // "+", "-", "*", "/", "%", "=", "!=", "<", "<=", ">", ">=", "and", "or", "like", "||"
	L, R Expr
}

// UnOp is a unary operation: "-", "not".
type UnOp struct {
	Op string
	E  Expr
}

// IsNull tests E IS [NOT] NULL.
type IsNull struct {
	E   Expr
	Not bool
}

// InList is E IN (v1, v2, ...).
type InList struct {
	E    Expr
	List []Expr
	Not  bool
}

// Between is E BETWEEN lo AND hi.
type Between struct {
	E, Lo, Hi Expr
	Not       bool
}

// Call is a function call: scalar (length, abs, upper, lower) or
// aggregate (count, sum, avg, min, max).
type Call struct {
	Fn       string
	Args     []Expr
	Star     bool // count(*)
	Distinct bool
}

// Star is the bare * projection.
type Star struct{ Table string }

func (Lit) expr()     {}
func (Param) expr()   {}
func (ColRef) expr()  {}
func (BinOp) expr()   {}
func (UnOp) expr()    {}
func (IsNull) expr()  {}
func (InList) expr()  {}
func (Between) expr() {}
func (Call) expr()    {}
func (Star) expr()    {}

// --- statements ---

// ColDef is one column in CREATE TABLE.
type ColDef struct {
	Name       string
	Type       Type
	PrimaryKey bool
	NotNull    bool
}

// CreateTable is CREATE TABLE.
type CreateTable struct {
	Name        string
	IfNotExists bool
	Cols        []ColDef
}

// DropTable is DROP TABLE.
type DropTable struct {
	Name     string
	IfExists bool
}

// CreateIndex is CREATE [UNIQUE] INDEX.
type CreateIndex struct {
	Name        string
	Table       string
	Cols        []string
	Unique      bool
	IfNotExists bool
}

// DropIndex is DROP INDEX.
type DropIndex struct {
	Name     string
	IfExists bool
}

// Insert is INSERT INTO.
type Insert struct {
	Table string
	Cols  []string // empty = all columns in schema order
	Rows  [][]Expr
}

// SelectItem is one projection item.
type SelectItem struct {
	E     Expr
	Alias string
}

// TableRef is one table in FROM, with optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// Join is an inner join with an ON condition.
type Join struct {
	Right TableRef
	On    Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	E    Expr
	Desc bool
}

// Select is SELECT.
type Select struct {
	Items    []SelectItem
	From     *TableRef // nil for SELECT 1+1
	Joins    []Join
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    Expr // nil = none
	Offset   Expr
	Distinct bool
}

// Update is UPDATE ... SET.
type Update struct {
	Table string
	Set   []Assignment
	Where Expr
}

// Assignment is one SET col = expr of an UPDATE.
type Assignment struct {
	Col string
	E   Expr
}

// Delete is DELETE FROM.
type Delete struct {
	Table string
	Where Expr
}

// Explain wraps a statement to report its access plan instead of
// executing it.
type Explain struct{ Stmt Stmt }

func (Explain) stmt() {}

// Begin/Commit/Rollback control explicit transactions.
type Begin struct{}
type Commit struct{}
type Rollback struct{}

func (CreateTable) stmt() {}
func (DropTable) stmt()   {}
func (CreateIndex) stmt() {}
func (DropIndex) stmt()   {}
func (Insert) stmt()      {}
func (Select) stmt()      {}
func (Update) stmt()      {}
func (Delete) stmt()      {}
func (Begin) stmt()       {}
func (Commit) stmt()      {}
func (Rollback) stmt()    {}
