package lang

// Deep-copy utilities over the AST. The semantic analyzer uses them, with a
// substitution of mapping annotations, to monomorphize mapping-polymorphic
// procedures (§5.1); autotune uses CloneProgram to retarget a private copy of
// a parsed program.

// Subst rewrites mapping annotations during cloning.
type Subst struct {
	// Maps replaces named mapping annotations (for dist-parameter
	// instantiation).
	Maps map[string]*MapExpr
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
		c := *e
		return &c
	case *IndexExpr:
		c := &IndexExpr{Pos: e.Pos, Array: e.Array}
		for _, ix := range e.Indices {
			c.Indices = append(c.Indices, CloneExpr(ix, s))
		}
		return c
	case *BinExpr:
		return &BinExpr{Pos: e.Pos, Op: e.Op, L: CloneExpr(e.L, s), R: CloneExpr(e.R, s)}
	case *UnExpr:
		return &UnExpr{Pos: e.Pos, Op: e.Op, X: CloneExpr(e.X, s)}
	case *CallExpr:
		c := &CallExpr{Pos: e.Pos, Name: e.Name}
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

// CloneStmt deep-copies a statement, applying the substitution.
func CloneStmt(st Stmt, s *Subst) Stmt {
	switch st := st.(type) {
	case *LetStmt:
		return &LetStmt{Pos: st.Pos, Name: st.Name,
			Type: CloneType(st.Type, s), Map: CloneMap(st.Map, s), Init: CloneExpr(st.Init, s)}
	case *AssignStmt:
		return &AssignStmt{Pos: st.Pos, Name: st.Name, Value: CloneExpr(st.Value, s)}
	case *StoreStmt:
		c := &StoreStmt{Pos: st.Pos, Array: st.Array, Value: CloneExpr(st.Value, s)}
		for _, ix := range st.Indices {
			c.Indices = append(c.Indices, CloneExpr(ix, s))
		}
		return c
	case *ForStmt:
		c := &ForStmt{Pos: st.Pos, Var: st.Var,
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
		c := &CallStmt{Pos: st.Pos, Name: st.Name}
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
