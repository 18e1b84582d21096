package lang

// Deep-copy and substitution utilities over the AST. The semantic analyzer
// uses them to monomorphize mapping-polymorphic procedures (§5.1), and the
// compile-time resolution inliner uses them to apply a participants function
// symbolically to the actual parameters of a call (§3.2).

// Subst rewrites identifiers and mapping annotations during cloning.
type Subst struct {
	// Vars maps identifier names to replacement expressions (for inlining
	// actual parameters and renaming locals).
	Vars map[string]Expr
	// Arrays renames array identifiers (array actuals must be names).
	Arrays map[string]string
	// Maps replaces named mapping annotations (for dist-parameter
	// instantiation).
	Maps map[string]*MapExpr
	// Procs renames procedure call targets.
	Procs map[string]string
}

func (s *Subst) varRepl(name string) (Expr, bool) {
	if s == nil || s.Vars == nil {
		return nil, false
	}
	e, ok := s.Vars[name]
	return e, ok
}

func (s *Subst) arrayRepl(name string) string {
	if s == nil || s.Arrays == nil {
		return name
	}
	if r, ok := s.Arrays[name]; ok {
		return r
	}
	return name
}

func (s *Subst) procRepl(name string) string {
	if s == nil || s.Procs == nil {
		return name
	}
	if r, ok := s.Procs[name]; ok {
		return r
	}
	return name
}

func (s *Subst) mapRepl(m *MapExpr) (*MapExpr, bool) {
	if s == nil || s.Maps == nil || m == nil || m.Kind != MapNamed {
		return nil, false
	}
	r, ok := s.Maps[m.Name]
	return r, ok
}

// CloneExpr deep-copies e, applying the substitution.
func CloneExpr(e Expr, s *Subst) Expr {
	switch e := e.(type) {
	case *NumLit:
		c := *e
		return &c
	case *BoolLit:
		c := *e
		return &c
	case *VarRef:
		if r, ok := s.varRepl(e.Name); ok {
			return CloneExpr(r, nil) // fresh copy of the replacement
		}
		c := *e
		return &c
	case *IndexExpr:
		c := &IndexExpr{Pos: e.Pos, Array: s.arrayRepl(e.Array)}
		for _, ix := range e.Indices {
			c.Indices = append(c.Indices, CloneExpr(ix, s))
		}
		return c
	case *BinExpr:
		return &BinExpr{Pos: e.Pos, Op: e.Op, L: CloneExpr(e.L, s), R: CloneExpr(e.R, s)}
	case *UnExpr:
		return &UnExpr{Pos: e.Pos, Op: e.Op, X: CloneExpr(e.X, s)}
	case *CallExpr:
		c := &CallExpr{Pos: e.Pos, Name: s.procRepl(e.Name)}
		for i := range e.DistArgs {
			c.DistArgs = append(c.DistArgs, *CloneMap(&e.DistArgs[i], s))
		}
		for _, a := range e.Args {
			c.Args = append(c.Args, CloneExpr(a, s))
		}
		return c
	case *AllocExpr:
		c := &AllocExpr{Pos: e.Pos, Base: e.Base}
		for _, d := range e.Dims {
			c.Dims = append(c.Dims, CloneExpr(d, s))
		}
		return c
	default:
		panic("lang: CloneExpr: unknown expression type")
	}
}

// CloneMap deep-copies a mapping annotation, applying the substitution.
// Returns nil for nil input.
func CloneMap(m *MapExpr, s *Subst) *MapExpr {
	if m == nil {
		return nil
	}
	if r, ok := s.mapRepl(m); ok {
		return CloneMap(r, nil)
	}
	c := &MapExpr{Pos: m.Pos, Kind: m.Kind, Name: m.Name}
	if m.Proc != nil {
		c.Proc = CloneExpr(m.Proc, s)
	}
	return c
}

// CloneType deep-copies a type expression, applying the substitution to its
// dimension expressions.
func CloneType(t *TypeExpr, s *Subst) *TypeExpr {
	if t == nil {
		return nil
	}
	c := &TypeExpr{Pos: t.Pos, Base: t.Base}
	for _, d := range t.Dims {
		c.Dims = append(c.Dims, CloneExpr(d, s))
	}
	return c
}

// CloneBlock deep-copies a block, applying the substitution.
func CloneBlock(b *Block, s *Subst) *Block {
	if b == nil {
		return nil
	}
	c := &Block{Pos: b.Pos}
	for _, st := range b.Stmts {
		c.Stmts = append(c.Stmts, CloneStmt(st, s))
	}
	return c
}

// CloneStmt deep-copies a statement, applying the substitution. Binding
// occurrences (let names, loop variables, assignment targets) are renamed
// when the substitution maps them to a VarRef; mapping them to any other
// expression is a misuse and panics.
func CloneStmt(st Stmt, s *Subst) Stmt {
	bindName := func(name string) string {
		if r, ok := s.varRepl(name); ok {
			if v, isVar := r.(*VarRef); isVar {
				return v.Name
			}
			panic("lang: CloneStmt: binding occurrence substituted by non-variable")
		}
		return name
	}
	switch st := st.(type) {
	case *LetStmt:
		return &LetStmt{Pos: st.Pos, Name: bindName(st.Name),
			Type: CloneType(st.Type, s), Map: CloneMap(st.Map, s), Init: CloneExpr(st.Init, s)}
	case *AssignStmt:
		return &AssignStmt{Pos: st.Pos, Name: bindName(st.Name), Value: CloneExpr(st.Value, s)}
	case *StoreStmt:
		c := &StoreStmt{Pos: st.Pos, Array: s.arrayRepl(st.Array), Value: CloneExpr(st.Value, s)}
		for _, ix := range st.Indices {
			c.Indices = append(c.Indices, CloneExpr(ix, s))
		}
		return c
	case *ForStmt:
		c := &ForStmt{Pos: st.Pos, Var: bindName(st.Var),
			Lo: CloneExpr(st.Lo, s), Hi: CloneExpr(st.Hi, s)}
		if st.Step != nil {
			c.Step = CloneExpr(st.Step, s)
		}
		c.Body = CloneBlock(st.Body, s)
		return c
	case *IfStmt:
		return &IfStmt{Pos: st.Pos, Cond: CloneExpr(st.Cond, s),
			Then: CloneBlock(st.Then, s), Else: CloneBlock(st.Else, s)}
	case *CallStmt:
		c := &CallStmt{Pos: st.Pos, Name: s.procRepl(st.Name)}
		for i := range st.DistArgs {
			c.DistArgs = append(c.DistArgs, *CloneMap(&st.DistArgs[i], s))
		}
		for _, a := range st.Args {
			c.Args = append(c.Args, CloneExpr(a, s))
		}
		return c
	case *ReturnStmt:
		c := &ReturnStmt{Pos: st.Pos}
		if st.Value != nil {
			c.Value = CloneExpr(st.Value, s)
		}
		return c
	default:
		panic("lang: CloneStmt: unknown statement type")
	}
}

// CloneProc deep-copies a procedure declaration under the substitution,
// giving the copy a new name and dropping any dist parameters that the
// substitution instantiates.
func CloneProc(p *ProcDecl, newName string, s *Subst) *ProcDecl {
	c := &ProcDecl{Pos: p.Pos, Name: newName}
	for _, dp := range p.DistParams {
		if _, ok := s.mapRepl(&MapExpr{Kind: MapNamed, Name: dp}); !ok {
			c.DistParams = append(c.DistParams, dp)
		}
	}
	for _, prm := range p.Params {
		c.Params = append(c.Params, Param{
			Pos: prm.Pos, Name: prm.Name,
			Type: *CloneType(&prm.Type, s), Map: CloneMap(prm.Map, s),
		})
	}
	c.RetType = CloneType(p.RetType, s)
	c.RetMap = CloneMap(p.RetMap, s)
	c.Body = CloneBlock(p.Body, s)
	return c
}

// CloneProgram returns a copy of p whose dist declarations and procedures can
// be rewritten without touching p: each DistDecl is copied, each ProcDecl is
// deep-copied (mapping annotations sit inside procedure bodies), and the
// ConstDecls, which no rewrite changes, are shared.
func CloneProgram(p *Program) *Program {
	c := &Program{Decls: make([]Decl, len(p.Decls))}
	for i, d := range p.Decls {
		switch d := d.(type) {
		case *DistDecl:
			dd := *d
			c.Decls[i] = &dd
		case *ProcDecl:
			c.Decls[i] = CloneProc(d, d.Name, nil)
		default:
			c.Decls[i] = d
		}
	}
	return c
}
