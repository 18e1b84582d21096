package sem

import (
	"fmt"
	"sort"

	"procdecomp/internal/dist"
	"procdecomp/internal/lang"
)

type checker struct {
	info      *Info
	errs      []error
	distDecls map[string]*lang.DistDecl
	templates map[string]*lang.ProcDecl // mapping-polymorphic procedures

	// per-procedure state
	scopes  []map[string]*Symbol
	curProc *Proc
}

func (c *checker) errorf(pos lang.Pos, format string, args ...any) {
	c.errs = append(c.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// collect gathers top-level declarations: constants (in order, with
// overrides), dist declarations, and procedure headers.
func (c *checker) collect() {
	c.info.Consts["NPROCS"] = &Symbol{
		Name: "NPROCS", Kind: SymConst, Type: Type{Base: lang.TInt},
		Const: float64(c.info.Cfg.Procs), ConstIsInt: true,
		Dist: dist.NewReplicated(c.info.Cfg.Procs),
	}
	for _, d := range c.info.Prog.Decls {
		switch d := d.(type) {
		case *lang.ConstDecl:
			if c.lookupTop(d.Name) != nil {
				c.errorf(d.Pos, "duplicate declaration of %s", d.Name)
				continue
			}
			var v float64
			var isInt bool
			if over, ok := c.info.Cfg.Defines[d.Name]; ok {
				v, isInt = float64(over), true
			} else {
				var err error
				v, isInt, err = c.constEval(d.Value)
				if err != nil {
					c.errorf(d.Pos, "constant %s: %v", d.Name, err)
					continue
				}
			}
			base := lang.TReal
			if isInt {
				base = lang.TInt
			}
			c.info.Consts[d.Name] = &Symbol{
				Name: d.Name, Kind: SymConst, Type: Type{Base: base},
				Const: v, ConstIsInt: isInt,
				Dist: dist.NewReplicated(c.info.Cfg.Procs),
			}
		case *lang.DistDecl:
			if c.lookupTop(d.Name) != nil {
				c.errorf(d.Pos, "duplicate declaration of %s", d.Name)
				continue
			}
			c.distDecls[d.Name] = d
		case *lang.ProcDecl:
			if c.lookupTop(d.Name) != nil {
				c.errorf(d.Pos, "duplicate declaration of %s", d.Name)
				continue
			}
			if len(d.DistParams) > 0 {
				c.templates[d.Name] = d
			} else {
				c.info.Procs[d.Name] = &Proc{Name: d.Name, Decl: d}
			}
		}
	}
}

// lookupTop finds a top-level name of any kind.
func (c *checker) lookupTop(name string) any {
	if s, ok := c.info.Consts[name]; ok {
		return s
	}
	if d, ok := c.distDecls[name]; ok {
		return d
	}
	if p, ok := c.info.Procs[name]; ok {
		return p
	}
	if t, ok := c.templates[name]; ok {
		return t
	}
	return nil
}

// constEvalInt evaluates an expression that must be a compile-time integer.
func (c *checker) constEvalInt(e lang.Expr) (int64, error) {
	v, isInt, err := c.constEval(e)
	if err != nil {
		return 0, err
	}
	if !isInt {
		return 0, fmt.Errorf("expected an integer constant, got %g", v)
	}
	return int64(v), nil
}

// constEval evaluates a compile-time constant expression over declared
// constants and NPROCS.
func (c *checker) constEval(e lang.Expr) (float64, bool, error) {
	switch e := e.(type) {
	case *lang.NumLit:
		return e.Val, e.IsInt, nil
	case *lang.VarRef:
		s, ok := c.info.Consts[e.Name]
		if !ok {
			return 0, false, fmt.Errorf("%s is not a constant", e.Name)
		}
		return s.Const, s.ConstIsInt, nil
	case *lang.UnExpr:
		v, isInt, err := c.constEval(e.X)
		if err != nil {
			return 0, false, err
		}
		if isInt, err = constResult(e.Op, isInt, isInt); err != nil {
			return 0, false, err
		}
		return lang.EvalUn(e.Op, v), isInt, nil
	case *lang.BinExpr:
		l, li, err := c.constEval(e.L)
		if err != nil {
			return 0, false, err
		}
		r, ri, err := c.constEval(e.R)
		if err != nil {
			return 0, false, err
		}
		isInt, err := constResult(e.Op, li, ri)
		if err != nil {
			return 0, false, err
		}
		v := lang.EvalBin(e.Op, l, r, func(string) { err = fmt.Errorf("division by zero in constant") })
		return v, isInt, err
	default:
		return 0, false, fmt.Errorf("expression is not a compile-time constant")
	}
}

// constResult types op over constant operands, int or real as li and ri say,
// by the operator table's rule. Constants are numbers, so an operator that
// yields a bool is not allowed in one.
func constResult(op lang.Op, li, ri bool) (isInt bool, err error) {
	base := func(isInt bool) lang.BaseType {
		if isInt {
			return lang.TInt
		}
		return lang.TReal
	}
	switch t := op.Result(base(li), base(ri)); {
	case t == lang.TBool:
		return false, fmt.Errorf("operator %s not allowed in constants", op)
	case !op.Operands().Admits(base(li)) || !op.Operands().Admits(base(ri)):
		return false, fmt.Errorf("%s requires integer operands", op)
	default:
		return t == lang.TInt, nil
	}
}

// bindDist resolves a mapping annotation into a bound decomposition for data
// of the given shape. A nil annotation defaults to replicated, and so does one
// bind rejects, once it has reported why.
func (c *checker) bindDist(m *lang.MapExpr, shape []int64, pos lang.Pos) dist.Dist {
	if d := c.bind(m, shape, pos); d != nil {
		return d
	}
	return dist.NewReplicated(c.info.Cfg.Procs, shape...)
}

// bind is bindDist for the annotations that name a processor or a
// declaration; it returns nil for the rest and for errors. A declaration's
// builtin, parameters and the rank it applies to are dist's family table's
// to judge: errors about the declaration are reported at it, the rank at the
// annotation.
func (c *checker) bind(m *lang.MapExpr, shape []int64, pos lang.Pos) dist.Dist {
	procs := c.info.Cfg.Procs
	switch {
	case m == nil || m.Kind == lang.MapAll:
		return nil
	case m.Kind == lang.MapProc:
		p, err := c.constEvalInt(m.Proc)
		if err != nil {
			c.errorf(m.Pos, "proc(...) mapping: %v", err)
			return nil
		}
		if p < 0 || p >= procs {
			c.errorf(m.Pos, "proc(%d) out of range [0, %d)", p, procs)
			return nil
		}
		return dist.NewSingle(procs, p, shape...)
	case m.Kind != lang.MapNamed:
		c.errorf(pos, "unsupported mapping")
		return nil
	}
	dd, ok := c.distDecls[m.Name]
	if !ok {
		c.errorf(m.Pos, "undefined decomposition %s", m.Name)
		return nil
	}
	k, ok := dist.Declared(dd.Builtin)
	if !ok {
		c.errorf(dd.Pos, "unknown decomposition builtin %s", dd.Builtin)
		return nil
	}
	if err := k.CheckRank(len(shape)); err != nil {
		c.errorf(m.Pos, "decomposition %s %v", m.Name, err)
		return nil
	}
	args := make([]int64, len(dd.Args))
	for i, a := range dd.Args {
		v, err := c.constEvalInt(a)
		if err != nil {
			c.errorf(dd.Pos, "decomposition %s argument %d: %v", dd.Name, i+1, err)
			return nil
		}
		args[i] = v
	}
	if err := k.Check(args, procs); err != nil {
		c.errorf(dd.Pos, "%v", err)
		return nil
	}
	c.info.Decomps[dd.Name] = Decomp{k, args}
	return k.Bind(args, shape)
}

// resolveType turns a syntactic type into a resolved one (dimensions
// const-evaluated).
func (c *checker) resolveType(t *lang.TypeExpr) (Type, bool) {
	rt := Type{Base: t.Base}
	for _, d := range t.Dims {
		v, err := c.constEvalInt(d)
		if err != nil {
			c.errorf(t.Pos, "array dimension: %v", err)
			return rt, false
		}
		if v <= 0 {
			c.errorf(t.Pos, "array dimension must be positive, got %d", v)
			return rt, false
		}
		rt.Dims = append(rt.Dims, v)
	}
	return rt, true
}

// --- recursion check ---

func (c *checker) checkRecursion() {
	// Build the call graph over monomorphic procedures.
	for _, p := range c.info.Procs {
		lang.Inspect(p.Decl.Body, func(n any) bool {
			switch n := n.(type) {
			case *lang.CallStmt:
				p.Callees = append(p.Callees, n.Name)
			case *lang.CallExpr:
				p.Callees = append(p.Callees, n.Name)
			}
			return true
		})
	}
	// Iterative DFS cycle detection, visiting procedures in sorted order for
	// deterministic error messages.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(name string) bool
	visit = func(name string) bool {
		color[name] = gray
		for _, callee := range c.info.Procs[name].Callees {
			if _, ok := c.info.Procs[callee]; !ok {
				continue // undefined callee reported during body checking
			}
			switch color[callee] {
			case gray:
				c.errorf(c.info.Procs[name].Decl.Pos,
					"recursion between %s and %s: compile-time resolution requires a non-recursive call graph", name, callee)
				return false
			case white:
				if !visit(callee) {
					return false
				}
			}
		}
		color[name] = black
		return true
	}
	names := make([]string, 0, len(c.info.Procs))
	for n := range c.info.Procs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if color[n] == white && !visit(n) {
			return
		}
	}
}

// --- procedure bodies ---

func (c *checker) checkProcs() {
	// Resolve signatures first so calls can be checked in any order.
	names := make([]string, 0, len(c.info.Procs))
	for n := range c.info.Procs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c.resolveSignature(c.info.Procs[n])
	}
	if len(c.errs) > 0 {
		return
	}
	for _, n := range names {
		c.checkBody(c.info.Procs[n])
	}
}

func (c *checker) resolveSignature(p *Proc) {
	d := p.Decl
	for i := range d.Params {
		prm := &d.Params[i]
		t, ok := c.resolveType(&prm.Type)
		if !ok {
			continue
		}
		kind := SymScalar
		if t.IsArray() {
			kind = SymArray
		}
		sym := &Symbol{Name: prm.Name, Kind: kind, Type: t,
			Dist: c.bindDist(prm.Map, t.Dims, prm.Pos)}
		p.Params = append(p.Params, sym)
	}
	if d.RetType != nil {
		t, ok := c.resolveType(d.RetType)
		if !ok {
			return
		}
		p.RetType = &t
		if t.IsArray() && d.RetMap == nil {
			c.errorf(d.Pos, "procedure %s returns an array and must declare its return mapping", d.Name)
			return
		}
		p.RetDist = c.bindDist(d.RetMap, t.Dims, d.Pos)
	}
}

func (c *checker) checkBody(p *Proc) {
	c.curProc = p
	c.scopes = []map[string]*Symbol{{}}
	for _, sym := range p.Params {
		c.declare(p.Decl.Pos, sym)
	}
	c.checkBlock(p.Decl.Body)
	c.scopes = nil
	c.curProc = nil
}

func (c *checker) pushScope() { c.scopes = append(c.scopes, map[string]*Symbol{}) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declare(pos lang.Pos, sym *Symbol) {
	if c.lookup(sym.Name) != nil || c.lookupTop(sym.Name) != nil {
		c.errorf(pos, "%s is already declared; shadowing is not allowed", sym.Name)
		return
	}
	c.scopes[len(c.scopes)-1][sym.Name] = sym
}

func (c *checker) lookup(name string) *Symbol {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s
		}
	}
	return nil
}

// lookupVar resolves a name to a local symbol or a constant.
func (c *checker) lookupVar(name string) *Symbol {
	if s := c.lookup(name); s != nil {
		return s
	}
	if s, ok := c.info.Consts[name]; ok {
		return s
	}
	return nil
}

func (c *checker) checkBlock(b *lang.Block) {
	c.pushScope()
	defer c.popScope()
	for _, st := range b.Stmts {
		c.checkStmt(st)
	}
}

func (c *checker) checkStmt(st lang.Stmt) {
	switch st := st.(type) {
	case *lang.LetStmt:
		c.checkLet(st)
	case *lang.AssignStmt:
		sym := c.lookupVar(st.Name)
		if sym == nil {
			c.errorf(st.Pos, "undefined variable %s", st.Name)
			return
		}
		switch sym.Kind {
		case SymLoopVar:
			c.errorf(st.Pos, "cannot assign to loop variable %s", st.Name)
			return
		case SymConst:
			c.errorf(st.Pos, "cannot assign to constant %s", st.Name)
			return
		case SymArray:
			c.errorf(st.Pos, "cannot assign whole array %s; write elements instead", st.Name)
			return
		}
		vt, ok := c.checkExpr(st.Value)
		if !ok {
			return
		}
		if !assignable(sym.Type, vt) {
			c.errorf(st.Pos, "cannot assign %s to %s %s", vt, sym.Type, st.Name)
			return
		}
		c.info.Refs[st] = sym
	case *lang.StoreStmt:
		sym := c.lookupVar(st.Array)
		if sym == nil {
			c.errorf(st.Pos, "undefined array %s", st.Array)
			return
		}
		if sym.Kind != SymArray {
			c.errorf(st.Pos, "%s is a %s, not an array", st.Array, sym.Kind)
			return
		}
		if len(st.Indices) != len(sym.Type.Dims) {
			c.errorf(st.Pos, "%s has rank %d but is indexed with %d subscripts",
				st.Array, len(sym.Type.Dims), len(st.Indices))
			return
		}
		for _, ix := range st.Indices {
			if t, ok := c.checkExpr(ix); ok && t.Base != lang.TInt {
				c.errorf(ix.Position(), "array subscript must be int, got %s", t)
			}
		}
		if vt, ok := c.checkExpr(st.Value); ok && !lang.Numeric.Admits(vt.Base) {
			c.errorf(st.Pos, "array element must be numeric, got %s", vt)
		}
		c.info.Refs[st] = sym
	case *lang.ForStmt:
		for _, e := range []lang.Expr{st.Lo, st.Hi} {
			if t, ok := c.checkExpr(e); ok && t.Base != lang.TInt {
				c.errorf(e.Position(), "loop bound must be int, got %s", t)
			}
		}
		if st.Step != nil {
			if t, ok := c.checkExpr(st.Step); ok && t.Base != lang.TInt {
				c.errorf(st.Step.Position(), "loop step must be int, got %s", t)
			}
			if v, err := c.constEvalInt(st.Step); err == nil && v <= 0 {
				c.errorf(st.Step.Position(), "loop step must be positive, got %d", v)
			}
		}
		sym := &Symbol{Name: st.Var, Kind: SymLoopVar, Type: Type{Base: lang.TInt},
			Dist: dist.NewReplicated(c.info.Cfg.Procs)}
		c.pushScope()
		c.declare(st.Pos, sym)
		c.info.Refs[st] = sym
		c.checkBlock(st.Body)
		c.popScope()
	case *lang.IfStmt:
		if t, ok := c.checkExpr(st.Cond); ok && t.Base != lang.TBool {
			c.errorf(st.Cond.Position(), "if condition must be bool, got %s", t)
		}
		c.checkBlock(st.Then)
		if st.Else != nil {
			c.checkBlock(st.Else)
		}
	case *lang.CallStmt:
		c.checkCall(st.Pos, st.Name, st.DistArgs, st.Args)
	case *lang.ReturnStmt:
		p := c.curProc
		if p.RetType == nil {
			if st.Value != nil {
				c.errorf(st.Pos, "procedure %s returns no value", p.Name)
			}
			return
		}
		if st.Value == nil {
			c.errorf(st.Pos, "procedure %s must return a %s", p.Name, *p.RetType)
			return
		}
		vt, ok := c.checkExpr(st.Value)
		if !ok {
			return
		}
		if p.RetType.IsArray() {
			vr, isVar := st.Value.(*lang.VarRef)
			if !isVar {
				c.errorf(st.Pos, "array return value must be a variable")
				return
			}
			sym := c.info.SymbolOf(vr)
			if !sym.Type.Equal(*p.RetType) {
				c.errorf(st.Pos, "return type mismatch: %s vs declared %s", sym.Type, *p.RetType)
				return
			}
			if sym.Dist.String() != p.RetDist.String() {
				c.errorf(st.Pos, "returned array %s has mapping %s but the procedure declares %s; redistribution on return is not supported",
					sym.Name, sym.Dist, p.RetDist)
			}
			return
		}
		if !assignable(*p.RetType, vt) {
			c.errorf(st.Pos, "cannot return %s from procedure returning %s", vt, *p.RetType)
		}
	default:
		c.errorf(st.Position(), "unsupported statement")
	}
}

func (c *checker) checkLet(st *lang.LetStmt) {
	if alloc, ok := st.Init.(*lang.AllocExpr); ok {
		dims := make([]int64, len(alloc.Dims))
		for i, d := range alloc.Dims {
			v, err := c.constEvalInt(d)
			if err != nil {
				c.errorf(d.Position(), "allocation dimension: %v", err)
				return
			}
			if v <= 0 {
				c.errorf(d.Position(), "allocation dimension must be positive, got %d", v)
				return
			}
			dims[i] = v
		}
		t := Type{Base: alloc.Base, Dims: dims}
		if st.Type != nil {
			declared, ok := c.resolveType(st.Type)
			if ok && !declared.Equal(t) {
				c.errorf(st.Pos, "declared type %s does not match allocation %s", declared, t)
			}
		}
		c.info.Types[alloc] = t
		sym := &Symbol{Name: st.Name, Kind: SymArray, Type: t,
			Dist: c.bindDist(st.Map, dims, st.Pos)}
		c.declare(st.Pos, sym)
		c.info.Refs[st] = sym
		return
	}
	vt, ok := c.checkExpr(st.Init)
	if !ok {
		return
	}
	if vt.IsArray() {
		// Array-valued call results bind like allocations.
		sym := &Symbol{Name: st.Name, Kind: SymArray, Type: vt,
			Dist: c.bindDist(st.Map, vt.Dims, st.Pos)}
		if call, isCall := st.Init.(*lang.CallExpr); isCall {
			callee := c.info.Procs[call.Name]
			if st.Map == nil {
				sym.Dist = callee.RetDist
			} else if sym.Dist.String() != callee.RetDist.String() {
				c.errorf(st.Pos, "let %s declares mapping %s but %s returns %s",
					st.Name, sym.Dist, call.Name, callee.RetDist)
			}
		} else {
			c.errorf(st.Pos, "arrays can only be bound to allocations or calls")
			return
		}
		c.declare(st.Pos, sym)
		c.info.Refs[st] = sym
		return
	}
	t := vt
	if st.Type != nil {
		declared, ok := c.resolveType(st.Type)
		if !ok {
			return
		}
		if !assignable(declared, vt) {
			c.errorf(st.Pos, "cannot initialize %s %s with %s", declared, st.Name, vt)
			return
		}
		t = declared
	}
	sym := &Symbol{Name: st.Name, Kind: SymScalar, Type: t,
		Dist: c.bindDist(st.Map, nil, st.Pos)}
	c.declare(st.Pos, sym)
	c.info.Refs[st] = sym
}

// checkCall validates a call and returns the callee.
func (c *checker) checkCall(pos lang.Pos, name string, distArgs []lang.MapExpr, args []lang.Expr) *Proc {
	callee, ok := c.info.Procs[name]
	if !ok {
		if _, isTemplate := c.templates[name]; isTemplate {
			c.errorf(pos, "call to mapping-polymorphic %s requires instantiation, e.g. %s[proc(0)](...)", name, name)
		} else {
			c.errorf(pos, "undefined procedure %s", name)
		}
		return nil
	}
	if len(distArgs) > 0 {
		// Instantiations are resolved during monomorphization; any left over
		// mean the callee was not polymorphic.
		c.errorf(pos, "%s is not mapping-polymorphic", name)
		return nil
	}
	if len(args) != len(callee.Params) {
		c.errorf(pos, "%s expects %d argument(s), got %d", name, len(callee.Params), len(args))
		return nil
	}
	for i, a := range args {
		prm := callee.Params[i]
		at, ok := c.checkExpr(a)
		if !ok {
			continue
		}
		if prm.Type.IsArray() {
			vr, isVar := a.(*lang.VarRef)
			if !isVar {
				c.errorf(a.Position(), "argument %d of %s must be an array variable", i+1, name)
				continue
			}
			sym := c.info.SymbolOf(vr)
			if sym.Kind != SymArray || !sym.Type.Equal(prm.Type) {
				c.errorf(a.Position(), "argument %d of %s: have %s, want %s", i+1, name, at, prm.Type)
				continue
			}
			// §5.2 restriction, adapted: array arguments must agree in
			// mapping; scalars are coerced (Fig. 4/Fig. 8 behaviour).
			if sym.Dist.String() != prm.Dist.String() {
				c.errorf(a.Position(), "argument %d of %s: array mapping %s does not match parameter mapping %s (redistribution at calls is not supported)",
					i+1, name, sym.Dist, prm.Dist)
			}
			continue
		}
		if !assignable(prm.Type, at) {
			c.errorf(a.Position(), "argument %d of %s: have %s, want %s", i+1, name, at, prm.Type)
		}
	}
	return callee
}

// assignable reports whether a value of type src may initialize dst
// (ints promote to reals).
func assignable(dst, src Type) bool {
	if dst.Equal(src) {
		return true
	}
	return dst.Base == lang.TReal && src.Base == lang.TInt
}

func (c *checker) checkExpr(e lang.Expr) (Type, bool) {
	t, ok := c.checkExprInner(e)
	if ok {
		c.info.Types[e] = t
	}
	return t, ok
}

func (c *checker) checkExprInner(e lang.Expr) (Type, bool) {
	switch e := e.(type) {
	case *lang.NumLit:
		if e.IsInt {
			return Type{Base: lang.TInt}, true
		}
		return Type{Base: lang.TReal}, true
	case *lang.BoolLit:
		return Type{Base: lang.TBool}, true
	case *lang.VarRef:
		sym := c.lookupVar(e.Name)
		if sym == nil {
			c.errorf(e.Pos, "undefined variable %s", e.Name)
			return Type{}, false
		}
		c.info.Refs[e] = sym
		return sym.Type, true
	case *lang.IndexExpr:
		sym := c.lookupVar(e.Array)
		if sym == nil {
			c.errorf(e.Pos, "undefined array %s", e.Array)
			return Type{}, false
		}
		if sym.Kind != SymArray {
			c.errorf(e.Pos, "%s is a %s, not an array", e.Array, sym.Kind)
			return Type{}, false
		}
		if len(e.Indices) != len(sym.Type.Dims) {
			c.errorf(e.Pos, "%s has rank %d but is indexed with %d subscripts",
				e.Array, len(sym.Type.Dims), len(e.Indices))
			return Type{}, false
		}
		for _, ix := range e.Indices {
			if t, ok := c.checkExpr(ix); ok && t.Base != lang.TInt {
				c.errorf(ix.Position(), "array subscript must be int, got %s", t)
			}
		}
		c.info.Refs[e] = sym
		return Type{Base: lang.TReal}, true
	case *lang.UnExpr:
		xt, ok := c.checkExpr(e.X)
		if !ok {
			return Type{}, false
		}
		if in := e.Op.Operands(); !in.Admits(xt.Base) {
			c.errorf(e.Pos, "operator %s requires a %s operand, got %s", e.Op, in, xt)
			return Type{}, false
		}
		return Type{Base: e.Op.Result(xt.Base, xt.Base)}, true
	case *lang.BinExpr:
		lt, lok := c.checkExpr(e.L)
		rt, rok := c.checkExpr(e.R)
		if !lok || !rok {
			return Type{}, false
		}
		if in := e.Op.Operands(); !in.Admits(lt.Base) || !in.Admits(rt.Base) {
			what := "operator " + e.Op.String()
			if e.Op.Comparison() {
				what = "comparison"
			}
			c.errorf(e.Pos, "%s requires %s operands, got %s and %s", what, in, lt, rt)
			return Type{}, false
		}
		return Type{Base: e.Op.Result(lt.Base, rt.Base)}, true
	case *lang.CallExpr:
		callee := c.checkCall(e.Pos, e.Name, e.DistArgs, e.Args)
		if callee == nil {
			return Type{}, false
		}
		if callee.RetType == nil {
			c.errorf(e.Pos, "procedure %s returns no value and cannot be used in an expression", e.Name)
			return Type{}, false
		}
		return *callee.RetType, true
	case *lang.AllocExpr:
		c.errorf(e.Pos, "allocations are only allowed as let initializers")
		return Type{}, false
	default:
		c.errorf(e.Position(), "unsupported expression")
		return Type{}, false
	}
}
