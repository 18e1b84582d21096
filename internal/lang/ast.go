package lang

// Abstract syntax tree for Idn. Compile-time resolution annotates these
// nodes with evaluators/participants information (paper §3.2: "The compiler
// uses conventional abstract syntax trees as the internal representation of
// programs"); the annotations live in internal/core to keep the front end
// independent of the analysis.

// Program is a parsed compilation unit.
type Program struct {
	Decls []Decl
}

// Decl is a top-level declaration.
type Decl interface {
	decl()
	Position() Pos
}

// ConstDecl is "const N = 128;". The initializer must be a compile-time
// constant expression (it may reference earlier constants and the built-in
// NPROCS).
type ConstDecl struct {
	Pos   Pos
	Name  string
	Value Expr
}

// DistDecl is "dist Column = cyclic_cols(NPROCS);", naming a decomposition
// family. Recognized builtins: cyclic_cols, cyclic_rows, block_cols,
// block_rows, block2d (matrices); cyclic, block (vectors).
type DistDecl struct {
	Pos     Pos
	Name    string
	Builtin string
	Args    []Expr
}

// ProcDecl is a procedure. DistParams are the mapping-polymorphism
// parameters of §5.1 ("proc f[D: dist](a: int on D): int on D").
type ProcDecl struct {
	Pos        Pos
	Name       string
	DistParams []string
	Params     []Param
	RetType    *TypeExpr // nil for no return value
	RetMap     *MapExpr  // nil when RetType is nil or mapping defaults
	Body       *Block
}

func (*ConstDecl) decl() {}
func (*DistDecl) decl()  {}
func (*ProcDecl) decl()  {}

// Position returns the declaration's source position.
func (d *ConstDecl) Position() Pos { return d.Pos }

// Position returns the declaration's source position.
func (d *DistDecl) Position() Pos { return d.Pos }

// Position returns the declaration's source position.
func (d *ProcDecl) Position() Pos { return d.Pos }

// Param is a procedure parameter with its type and optional mapping.
type Param struct {
	Pos  Pos
	Name string
	Type TypeExpr
	Map  *MapExpr // nil means replicated for scalars; arrays require a mapping
}

// BaseType enumerates Idn types.
type BaseType int

// Base types.
const (
	TInt BaseType = iota
	TReal
	TBool
	TMatrix
	TVector
)

func (b BaseType) String() string {
	switch b {
	case TInt:
		return "int"
	case TReal:
		return "real"
	case TBool:
		return "bool"
	case TMatrix:
		return "matrix"
	case TVector:
		return "vector"
	}
	return "?"
}

// TypeExpr is a syntactic type: a scalar base type or matrix[r,c]/vector[n]
// with constant dimension expressions.
type TypeExpr struct {
	Pos  Pos
	Base BaseType
	Dims []Expr // nil for scalars; len 2 for matrix, len 1 for vector
}

// MapKind classifies mapping annotations.
type MapKind int

// Mapping annotation kinds.
const (
	MapNamed MapKind = iota // "on Column" — a declared dist (or dist parameter)
	MapProc                 // "on proc(e)" — a single processor
	MapAll                  // "on all" — replicated
)

// MapExpr is the "on ..." clause attaching a decomposition to a variable.
type MapExpr struct {
	Pos  Pos
	Kind MapKind
	Name string // for MapNamed
	Proc Expr   // for MapProc
}

// Block is a brace-delimited statement sequence.
type Block struct {
	Pos   Pos
	Stmts []Stmt
}

// Stmt is a statement.
type Stmt interface {
	stmt()
	Position() Pos
}

// LetStmt declares a new variable: "let x on all = 5;" for scalars, or
// "let New = matrix(N, N) on Column;" for I-structure allocation (where the
// initializer is an AllocExpr and Map gives the decomposition).
type LetStmt struct {
	Pos  Pos
	Name string
	Type *TypeExpr // optional scalar type annotation
	Map  *MapExpr
	Init Expr
}

// AssignStmt writes a scalar I-variable: "x = e;". Loop variables may not be
// assigned; other scalars may be assigned at most once on any execution path
// (checked dynamically, as the paper specifies for I-structures).
type AssignStmt struct {
	Pos   Pos
	Name  string
	Value Expr
}

// StoreStmt is an I-structure element write: "A[i, j] = e;".
type StoreStmt struct {
	Pos     Pos
	Array   string
	Indices []Expr
	Value   Expr
}

// ForStmt is "for i = lo to hi [by step] { ... }" with an inclusive upper
// bound, following the paper's programs.
type ForStmt struct {
	Pos    Pos
	Var    string
	Lo, Hi Expr
	Step   Expr // nil means 1
	Body   *Block
}

// IfStmt is "if cond { ... } [else { ... }]".
type IfStmt struct {
	Pos  Pos
	Cond Expr
	Then *Block
	Else *Block // may be nil
}

// CallStmt invokes a procedure for effect: "call init_boundary(New);".
type CallStmt struct {
	Pos      Pos
	Name     string
	DistArgs []MapExpr // mapping-polymorphism instantiation, "f[proc(2)](b)"
	Args     []Expr
}

// ReturnStmt is "return e;" or "return;".
type ReturnStmt struct {
	Pos   Pos
	Value Expr // may be nil
}

func (*LetStmt) stmt()    {}
func (*AssignStmt) stmt() {}
func (*StoreStmt) stmt()  {}
func (*ForStmt) stmt()    {}
func (*IfStmt) stmt()     {}
func (*CallStmt) stmt()   {}
func (*ReturnStmt) stmt() {}

// Position returns the statement's source position.
func (s *LetStmt) Position() Pos { return s.Pos }

// Position returns the statement's source position.
func (s *AssignStmt) Position() Pos { return s.Pos }

// Position returns the statement's source position.
func (s *StoreStmt) Position() Pos { return s.Pos }

// Position returns the statement's source position.
func (s *ForStmt) Position() Pos { return s.Pos }

// Position returns the statement's source position.
func (s *IfStmt) Position() Pos { return s.Pos }

// Position returns the statement's source position.
func (s *CallStmt) Position() Pos { return s.Pos }

// Position returns the statement's source position.
func (s *ReturnStmt) Position() Pos { return s.Pos }

// Expr is an expression.
type Expr interface {
	expr()
	Position() Pos
}

// NumLit is an integer or real literal.
type NumLit struct {
	Pos   Pos
	Val   float64
	IsInt bool
}

// BoolLit is "true" or "false".
type BoolLit struct {
	Pos Pos
	Val bool
}

// VarRef names a variable or constant.
type VarRef struct {
	Pos  Pos
	Name string
}

// IndexExpr is an I-structure element read: "A[i, j]".
type IndexExpr struct {
	Pos     Pos
	Array   string
	Indices []Expr
}

// BinExpr is a binary operation.
type BinExpr struct {
	Pos  Pos
	Op   Op
	L, R Expr
}

// UnExpr is a unary operation (negation, not).
type UnExpr struct {
	Pos Pos
	Op  Op
	X   Expr
}

// CallExpr is a value-returning procedure call: "f(x)" or "f[proc(2)](x)".
type CallExpr struct {
	Pos      Pos
	Name     string
	DistArgs []MapExpr
	Args     []Expr
}

// AllocExpr is an I-structure allocation: "matrix(r, c)" or "vector(n)".
// Allocations are only legal as let initializers.
type AllocExpr struct {
	Pos  Pos
	Base BaseType // TMatrix or TVector
	Dims []Expr
}

func (*NumLit) expr()    {}
func (*BoolLit) expr()   {}
func (*VarRef) expr()    {}
func (*IndexExpr) expr() {}
func (*BinExpr) expr()   {}
func (*UnExpr) expr()    {}
func (*CallExpr) expr()  {}
func (*AllocExpr) expr() {}

// Position returns the expression's source position.
func (e *NumLit) Position() Pos { return e.Pos }

// Position returns the expression's source position.
func (e *BoolLit) Position() Pos { return e.Pos }

// Position returns the expression's source position.
func (e *VarRef) Position() Pos { return e.Pos }

// Position returns the expression's source position.
func (e *IndexExpr) Position() Pos { return e.Pos }

// Position returns the expression's source position.
func (e *BinExpr) Position() Pos { return e.Pos }

// Position returns the expression's source position.
func (e *UnExpr) Position() Pos { return e.Pos }

// Position returns the expression's source position.
func (e *CallExpr) Position() Pos { return e.Pos }

// Position returns the expression's source position.
func (e *AllocExpr) Position() Pos { return e.Pos }
