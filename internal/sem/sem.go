// Package sem implements semantic analysis for Idn programs: name
// resolution, type checking, constant evaluation, binding of domain
// decompositions to arrays and scalars, monomorphization of
// mapping-polymorphic procedures (paper §5.1), and the structural
// restrictions the compiler needs (no recursion, no shadowing, loop
// variables immutable).
//
// The result of Check is an Info: the (possibly rewritten) program together
// with resolution tables mapping AST nodes to symbols and expressions to
// types. Both the interpreters (internal/exec) and the process-decomposition
// compiler (internal/core) consume Info rather than re-deriving bindings.
package sem

import (
	"fmt"

	"procdecomp/internal/dist"
	"procdecomp/internal/lang"
)

// Config parameterizes checking for a particular machine and workload.
type Config struct {
	// Procs is the machine size; it binds the built-in constant NPROCS.
	Procs int64
	// Defines overrides program constants by name (e.g. N for grid-size
	// sweeps) without editing the source.
	Defines map[string]int64
}

// Error is a semantic error with its source position.
type Error struct {
	Pos lang.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Type is a resolved Idn type; array dimensions are compile-time constants.
type Type struct {
	Base lang.BaseType
	Dims []int64 // nil for scalars
}

// IsArray reports whether the type is a matrix or vector.
func (t Type) IsArray() bool { return t.Base == lang.TMatrix || t.Base == lang.TVector }

func (t Type) String() string {
	switch t.Base {
	case lang.TMatrix:
		return fmt.Sprintf("matrix[%d, %d]", t.Dims[0], t.Dims[1])
	case lang.TVector:
		return fmt.Sprintf("vector[%d]", t.Dims[0])
	default:
		return t.Base.String()
	}
}

// Equal reports type identity.
func (t Type) Equal(o Type) bool {
	if t.Base != o.Base || len(t.Dims) != len(o.Dims) {
		return false
	}
	for i := range t.Dims {
		if t.Dims[i] != o.Dims[i] {
			return false
		}
	}
	return true
}

// SymKind classifies symbols.
type SymKind int

// Symbol kinds.
const (
	SymConst SymKind = iota
	SymScalar
	SymArray
	SymLoopVar
)

func (k SymKind) String() string {
	switch k {
	case SymConst:
		return "constant"
	case SymScalar:
		return "scalar"
	case SymArray:
		return "array"
	case SymLoopVar:
		return "loop variable"
	}
	return "?"
}

// Symbol is a resolved program entity.
type Symbol struct {
	Name string
	Kind SymKind
	Type Type
	// Dist is the bound decomposition: for arrays, the full <map, local,
	// alloc> triple; for scalars, a single-processor or replicated mapping.
	// Loop variables are implicitly replicated (every process runs its own
	// control); constants are replicated.
	Dist dist.Dist
	// Const holds the value for SymConst.
	Const      float64
	ConstIsInt bool
}

// Proc is a checked, monomorphic procedure.
type Proc struct {
	Name    string
	Decl    *lang.ProcDecl
	Params  []*Symbol
	RetType *Type     // nil for void
	RetDist dist.Dist // nil for void
	// Callees names every procedure the body calls, in source order and
	// with repeats: the call graph the recursion check walks.
	Callees []string
}

// Info is the result of semantic analysis.
type Info struct {
	Cfg  Config
	Prog *lang.Program // after monomorphization; templates removed
	// Consts maps constant names (including NPROCS) to their symbols.
	Consts map[string]*Symbol
	// Procs maps (monomorphic) procedure names to their checked signatures.
	Procs map[string]*Proc
	// Refs resolves identifier-bearing AST nodes to symbols: *lang.VarRef,
	// *lang.IndexExpr, *lang.StoreStmt (the array), *lang.AssignStmt (the
	// target), *lang.LetStmt (the defined symbol), and *lang.ForStmt (the
	// loop variable).
	Refs map[any]*Symbol
	// Types records the resolved type of every expression.
	Types map[lang.Expr]Type
	// Decomps holds each dist declaration a mapping named, as bound.
	Decomps map[string]Decomp
}

// A Decomp is a bound dist declaration: its family and its arguments,
// evaluated.
type Decomp struct {
	Kind dist.Kind
	Args []int64
}

// SymbolOf returns the symbol a node resolves to, panicking if the node was
// not checked — an internal-consistency bug, not a user error.
func (in *Info) SymbolOf(node any) *Symbol {
	s, ok := in.Refs[node]
	if !ok {
		panic(fmt.Sprintf("sem: node %T has no resolved symbol", node))
	}
	return s
}

// Check analyzes a program for a machine configuration. On failure it
// returns the list of semantic errors found (at least one).
func Check(prog *lang.Program, cfg Config) (*Info, []error) {
	if cfg.Procs <= 0 {
		return nil, []error{fmt.Errorf("sem: config must have a positive processor count")}
	}
	c := &checker{
		info: &Info{
			Cfg:     cfg,
			Prog:    prog,
			Consts:  map[string]*Symbol{},
			Procs:   map[string]*Proc{},
			Refs:    map[any]*Symbol{},
			Types:   map[lang.Expr]Type{},
			Decomps: map[string]Decomp{},
		},
		distDecls: map[string]*lang.DistDecl{},
		templates: map[string]*lang.ProcDecl{},
	}
	c.collect()
	if len(c.errs) == 0 {
		c.monomorphize()
	}
	if len(c.errs) == 0 {
		c.checkRecursion()
	}
	if len(c.errs) == 0 {
		c.checkProcs()
	}
	if len(c.errs) > 0 {
		return nil, c.errs
	}
	return c.info, nil
}
