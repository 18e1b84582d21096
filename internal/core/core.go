// Package core implements the paper's primary contribution: process
// decomposition through locality of reference. Given a checked sequential
// Idn program and its domain decomposition, it performs:
//
//   - Run-time resolution (§3.1): one generic SPMD program for all
//     processes, built from three rules — the owner of a datum computes it,
//     the owner communicates it to whoever needs it (coerce), and every
//     process examines every statement to determine its role.
//
//   - Compile-time resolution (§3.2): the mapping information is propagated
//     through the program (the evaluators appear here as the symbolic owner
//     expressions attached to guards and coerces), and the generic program
//     is specialized for each process. Ownership tests decidable at compile
//     time (yes/no/inconclusive, via the expr package's three-valued
//     comparison) are eliminated; coerces whose roles are decided split into
//     bare sends, receives, or local reads; and loops whose residual guards
//     solve to congruence classes are restricted to the iterations the
//     process actually participates in. Inconclusive tests remain as
//     run-time checks, exactly as the paper prescribes.
//
// Procedure calls are integrated at compile time (the participants function
// is "symbolically applied to the actual parameters" — here, by compiling
// the callee's body at the call site with formals bound to actuals, scalars
// coerced to the formal's owner). Recursion is rejected by sem.
package core

import (
	"fmt"

	"procdecomp/internal/dist"
	"procdecomp/internal/expr"
	"procdecomp/internal/lang"
	"procdecomp/internal/sem"
	"procdecomp/internal/spmd"
)

// Compiler drives process decomposition for one checked program.
type Compiler struct {
	info *sem.Info
}

// New creates a compiler over a checked program.
func New(info *sem.Info) *Compiler { return &Compiler{info: info} }

// CompileRTR generates the run-time resolution program for the entry
// procedure: a single generic program executed by every process.
func (c *Compiler) CompileRTR(entry string) (prog *spmd.Program, err error) {
	p, ok := c.info.Procs[entry]
	if !ok {
		return nil, fmt.Errorf("core: no procedure %s", entry)
	}
	g := &gen{
		info:   c.info,
		used:   map[string]bool{spmd.Me: true},
		arrays: map[string]spmd.ArrayInfo{},
	}
	defer func() {
		if r := recover(); r != nil {
			if ce, ok := r.(*compileError); ok {
				prog, err = nil, fmt.Errorf("core: %s: %s", ce.pos, ce.msg)
				return
			}
			panic(r)
		}
	}()

	env := newScope(nil)
	var params []spmd.ArrayInfo
	for _, prm := range p.Params {
		if !prm.Type.IsArray() {
			return nil, fmt.Errorf("core: entry procedure %s has scalar parameter %s; use consts for scalar inputs", entry, prm.Name)
		}
		if prm.Type.Base != lang.TMatrix {
			return nil, fmt.Errorf("core: entry procedure parameters must be matrices")
		}
		name := g.fresh(prm.Name)
		info := spmd.ArrayInfo{Name: name, Dist: prm.Dist, GlobalShape: prm.Type.Dims}
		params = append(params, info)
		g.arrays[name] = info
		env.bind(prm, &irBinding{name: name, sym: prm})
	}

	var body block
	retVal := g.compileBody(&body, env, p)

	var outputs []spmd.OutVar
	for _, prm := range params {
		outputs = append(outputs, spmd.OutVar{Name: prm.Name, IsArray: true})
	}
	if retVal != nil {
		if retVal.isArray {
			if retVal.name != "" && g.arrays[retVal.name].Name != "" {
				already := false
				for _, o := range outputs {
					if o.Name == retVal.name {
						already = true
					}
				}
				if !already {
					outputs = append(outputs, spmd.OutVar{Name: retVal.name, IsArray: true})
				}
			}
		} else {
			outputs = append(outputs, spmd.OutVar{Name: retVal.name, ScalarDist: retVal.dist})
		}
	}

	return &spmd.Program{
		Name:    entry,
		Proc:    -1,
		Params:  params,
		Arrays:  g.arrays,
		Body:    body.stmts,
		Outputs: outputs,
	}, nil
}

// CompileCTR generates compile-time resolution programs: one specialized
// program per process. restrict controls whether loops are restricted to
// owned iterations (the full §3.2 treatment); without it, specialization
// only removes decidable guards and splits coerces.
func (c *Compiler) CompileCTR(entry string, restrict bool) ([]*spmd.Program, error) {
	generic, err := c.CompileRTR(entry)
	if err != nil {
		return nil, err
	}
	return SpecializeAll(generic, c.info.Cfg.Procs, restrict), nil
}

// compileError aborts compilation with a source position.
type compileError struct {
	pos lang.Pos
	msg string
}

// irBinding is the compile-time value of a source symbol: the IR name it was
// given in the current procedure instance.
type irBinding struct {
	name string
	sym  *sem.Symbol
}

// scope maps sem symbols to IR bindings for one procedure instance.
type scope struct {
	parent *scope
	byName map[*sem.Symbol]*irBinding
}

func newScope(parent *scope) *scope {
	return &scope{parent: parent, byName: map[*sem.Symbol]*irBinding{}}
}

func (s *scope) bind(sym *sem.Symbol, b *irBinding) { s.byName[sym] = b }

func (s *scope) lookup(sym *sem.Symbol) *irBinding {
	for sc := s; sc != nil; sc = sc.parent {
		if b, ok := sc.byName[sym]; ok {
			return b
		}
	}
	return nil
}

// block accumulates generated statements.
type block struct {
	stmts []spmd.Stmt
}

func (b *block) emit(s spmd.Stmt) { b.stmts = append(b.stmts, s) }

// target is where a computation happens: a single symbolic process, or all
// of them (replicated).
type target struct {
	all  bool
	proc expr.Expr
}

func allTarget() target             { return target{all: true} }
func procTarget(e expr.Expr) target { return target{proc: e} }

// gen is the run-time resolution code generator.
type gen struct {
	info    *sem.Info
	used    map[string]bool
	nextTmp int
	nextTag spmd.Tag
	arrays  map[string]spmd.ArrayInfo
}

func (g *gen) failf(pos lang.Pos, format string, args ...any) {
	panic(&compileError{pos: pos, msg: fmt.Sprintf(format, args...)})
}

// fresh returns base if unused, else base#k.
func (g *gen) fresh(base string) string {
	if !g.used[base] {
		g.used[base] = true
		return base
	}
	for k := 2; ; k++ {
		name := fmt.Sprintf("%s#%d", base, k)
		if !g.used[name] {
			g.used[name] = true
			return name
		}
	}
}

func (g *gen) tmp() string {
	g.nextTmp++
	return fmt.Sprintf("t%d", g.nextTmp)
}

func (g *gen) tag() spmd.Tag {
	g.nextTag++
	return g.nextTag
}

// ownerOfScalar returns the target owning a scalar symbol.
func ownerOfScalar(sym *sem.Symbol) target {
	if p, ok := dist.ProcOf(sym.Dist); ok {
		return procTarget(expr.C(p))
	}
	return allTarget() // replicated (constants, loop variables, ALL scalars)
}

// ownerOfElem returns the target owning an array element at the given
// symbolic global index.
func ownerOfElem(d dist.Dist, idx []expr.Expr) target {
	if d.Kind() == dist.KindReplicated {
		return allTarget()
	}
	return procTarget(d.SymbolicOwner(idx))
}

// guard wraps stmts in "if proc = mynode()" unless the target is all.
func (g *gen) guarded(b *block, to target, stmts []spmd.Stmt) {
	if to.all {
		for _, s := range stmts {
			b.emit(s)
		}
		return
	}
	b.emit(&spmd.Guard{Proc: to.proc, Body: stmts})
}

// coerceScalar emits a coerce of a scalar I-variable to the target and
// returns the temporary holding it there.
func (g *gen) coerceScalar(b *block, bnd *irBinding, to target) string {
	dst := g.tmp()
	co := &spmd.Coerce{Dst: dst, Var: bnd.name, Tag: g.tag()}
	from := ownerOfScalar(bnd.sym)
	if from.all {
		co.OwnerAll = true
	} else {
		co.Owner = from.proc
	}
	if to.all {
		co.NeederAll = true
	} else {
		co.Needer = to.proc
	}
	b.emit(co)
	return dst
}

// coerceElem emits a coerce of an array element to the target.
func (g *gen) coerceElem(b *block, arrName string, d dist.Dist, idx []expr.Expr, to target) string {
	dst := g.tmp()
	co := &spmd.Coerce{Dst: dst, Array: arrName, Idx: d.SymbolicLocal(idx), Tag: g.tag()}
	from := ownerOfElem(d, idx)
	if from.all {
		co.OwnerAll = true
	} else {
		co.Owner = from.proc
	}
	if to.all {
		co.NeederAll = true
	} else {
		co.Needer = to.proc
	}
	b.emit(co)
	return dst
}

// compileBody compiles a procedure instance and returns its result (nil for
// void procedures).
type result struct {
	isArray bool
	name    string    // IR array name or scalar temp name
	dist    dist.Dist // scalar result owner
}

func (g *gen) compileBody(b *block, env *scope, p *sem.Proc) *result {
	n := len(p.Decl.Body.Stmts)
	for i, st := range p.Decl.Body.Stmts {
		if ret, isRet := st.(*lang.ReturnStmt); isRet {
			if i != n-1 {
				g.failf(ret.Pos, "return must be the final statement of %s for compile-time integration", p.Name)
			}
			if ret.Value == nil {
				return nil
			}
			if vr, ok := ret.Value.(*lang.VarRef); ok {
				sym := g.info.SymbolOf(vr)
				if sym.Kind == sem.SymArray {
					return &result{isArray: true, name: env.lookup(sym).name}
				}
			}
			// Scalar return: compute at the declared return mapping.
			to := target{all: true}
			if pp, ok := dist.ProcOf(p.RetDist); ok {
				to = procTarget(expr.C(pp))
			}
			name := g.fresh(p.Name + ".ret")
			v := g.compileValue(b, env, ret.Value, to)
			g.guarded(b, to, []spmd.Stmt{&spmd.AssignIVar{Name: name, Val: v, Def: true}})
			return &result{name: name, dist: p.RetDist}
		}
		g.compileStmt(b, env, st)
	}
	return nil
}

func (g *gen) compileStmt(b *block, env *scope, st lang.Stmt) {
	switch st := st.(type) {
	case *lang.LetStmt:
		sym := g.info.SymbolOf(st)
		if sym.Kind == sem.SymArray {
			if _, isAlloc := st.Init.(*lang.AllocExpr); isAlloc {
				name := g.fresh(st.Name)
				g.arrays[name] = spmd.ArrayInfo{Name: name, Dist: sym.Dist, GlobalShape: sym.Type.Dims}
				shape := sym.Dist.LocalShape()
				se := make([]expr.Expr, len(shape))
				for i, v := range shape {
					se[i] = expr.C(v)
				}
				if len(se) == 1 {
					se = append(se, expr.C(1)) // vectors are 1-column matrices locally
				}
				b.emit(&spmd.Alloc{Array: name, Shape: se})
				env.bind(sym, &irBinding{name: name, sym: sym})
				return
			}
			// Array-valued call: bind the let name to the returned array.
			call := st.Init.(*lang.CallExpr)
			res := g.integrateCall(b, env, call.Pos, call.Name, call.Args)
			if res == nil || !res.isArray {
				g.failf(st.Pos, "call %s did not produce an array", call.Name)
			}
			env.bind(sym, &irBinding{name: res.name, sym: sym})
			return
		}
		to := ownerOfScalar(sym)
		name := g.fresh(st.Name)
		v := g.compileValue(b, env, st.Init, to)
		g.guarded(b, to, []spmd.Stmt{&spmd.AssignIVar{Name: name, Val: v, Def: true}})
		env.bind(sym, &irBinding{name: name, sym: sym})

	case *lang.AssignStmt:
		sym := g.info.SymbolOf(st)
		bnd := env.lookup(sym)
		to := ownerOfScalar(sym)
		v := g.compileValue(b, env, st.Value, to)
		g.guarded(b, to, []spmd.Stmt{&spmd.AssignIVar{Name: bnd.name, Val: v}})

	case *lang.StoreStmt:
		sym := g.info.SymbolOf(st)
		bnd := env.lookup(sym)
		idx := make([]expr.Expr, len(st.Indices))
		for i, ix := range st.Indices {
			idx[i] = g.compileIndex(b, env, ix)
		}
		to := ownerOfElem(sym.Dist, idx)
		v := g.compileValue(b, env, st.Value, to)
		g.guarded(b, to, []spmd.Stmt{
			&spmd.AWrite{Array: bnd.name, Idx: sym.Dist.SymbolicLocal(idx), Val: v},
		})

	case *lang.ForStmt:
		lo := g.compileIndex(b, env, st.Lo)
		hi := g.compileIndex(b, env, st.Hi)
		step := expr.C(1)
		if st.Step != nil {
			step = g.compileIndex(b, env, st.Step)
		}
		sym := g.info.SymbolOf(st)
		name := g.fresh(st.Var)
		inner := newScope(env)
		inner.bind(sym, &irBinding{name: name, sym: sym})
		var body block
		for _, s := range st.Body.Stmts {
			g.compileStmt(&body, inner, s)
		}
		b.emit(&spmd.For{Var: name, Lo: lo, Hi: hi, Step: step, Body: body.stmts})

	case *lang.IfStmt:
		// §3.2: the participants of both branches evaluate the condition;
		// run-time resolution evaluates it everywhere.
		cond := g.compileValue(b, env, st.Cond, allTarget())
		var thenB, elseB block
		inner := newScope(env)
		for _, s := range st.Then.Stmts {
			g.compileStmt(&thenB, inner, s)
		}
		if st.Else != nil {
			inner2 := newScope(env)
			for _, s := range st.Else.Stmts {
				g.compileStmt(&elseB, inner2, s)
			}
		}
		b.emit(&spmd.IfValue{Cond: cond, Then: thenB.stmts, Else: elseB.stmts})

	case *lang.CallStmt:
		g.integrateCall(b, env, st.Pos, st.Name, st.Args)

	case *lang.ReturnStmt:
		g.failf(st.Pos, "return must be the final statement of its procedure for compile-time integration")

	default:
		g.failf(st.Position(), "unsupported statement")
	}
}

// integrateCall compiles a call by integrating the callee's body at the call
// site: array actuals alias, scalar actuals are computed and coerced to the
// formal's owner (the Fig. 8 behaviour), and the body is compiled in a fresh
// scope with fresh names.
func (g *gen) integrateCall(b *block, env *scope, pos lang.Pos, name string, args []lang.Expr) *result {
	callee, ok := g.info.Procs[name]
	if !ok {
		g.failf(pos, "undefined procedure %s", name)
	}
	inner := newScope(nil) // callee sees only its own bindings
	for i, prm := range callee.Params {
		a := args[i]
		if prm.Type.IsArray() {
			vr := a.(*lang.VarRef)
			actual := env.lookup(g.info.SymbolOf(vr))
			inner.bind(prm, &irBinding{name: actual.name, sym: prm})
			continue
		}
		// Scalar: compute the actual at the formal's owner and bind.
		to := ownerOfScalar(prm)
		v := g.compileValue(b, env, a, to)
		fname := g.fresh(name + "." + prm.Name)
		g.guarded(b, to, []spmd.Stmt{&spmd.AssignIVar{Name: fname, Val: v, Def: true}})
		inner.bind(prm, &irBinding{name: fname, sym: prm})
	}
	return g.compileBody(b, inner, callee)
}

// compileIndex compiles an integer (index/bound) expression into a symbolic
// expr usable by every process: constants and loop variables are replicated;
// owned scalars are broadcast once into a temporary.
func (g *gen) compileIndex(b *block, env *scope, e lang.Expr) expr.Expr {
	switch e := e.(type) {
	case *lang.NumLit:
		return expr.C(int64(e.Val))
	case *lang.VarRef:
		sym := g.info.SymbolOf(e)
		switch sym.Kind {
		case sem.SymConst:
			return expr.C(int64(sym.Const))
		case sem.SymLoopVar:
			return expr.V(env.lookup(sym).name)
		default:
			// An owned scalar used in an index: broadcast its value so every
			// process can evaluate the subscript and the ownership test.
			bnd := env.lookup(sym)
			tmp := g.coerceScalar(b, bnd, allTarget())
			return expr.V(tmp)
		}
	case *lang.UnExpr:
		if e.Op == lang.OpNeg {
			return expr.Neg(g.compileIndex(b, env, e.X))
		}
		g.failf(e.Pos, "operator not allowed in an index expression")
	case *lang.BinExpr:
		l := g.compileIndex(b, env, e.L)
		r := g.compileIndex(b, env, e.R)
		switch e.Op {
		case lang.OpAdd:
			return expr.Add(l, r)
		case lang.OpSub:
			return expr.Sub(l, r)
		case lang.OpMul:
			return expr.Mul(l, r)
		case lang.OpDivInt:
			return expr.Div(l, r)
		case lang.OpMod:
			return expr.Mod(l, r)
		case lang.OpMin:
			return expr.Min(l, r)
		case lang.OpMax:
			return expr.Max(l, r)
		default:
			g.failf(e.Pos, "operator %s not allowed in an index expression", e.Op)
		}
	case *lang.CallExpr:
		res := g.integrateCall(b, env, e.Pos, e.Name, e.Args)
		if res == nil || res.isArray {
			g.failf(e.Pos, "call %s cannot be used in an index expression", e.Name)
		}
		tmp := g.tmp()
		co := &spmd.Coerce{Dst: tmp, Var: res.name, Tag: g.tag(), NeederAll: true}
		if pp, ok := dist.ProcOf(res.dist); ok {
			co.Owner = expr.C(pp)
		} else {
			co.OwnerAll = true
		}
		b.emit(co)
		return expr.V(tmp)
	}
	g.failf(e.Position(), "unsupported index expression")
	return expr.Expr{}
}

// compileValue compiles a data expression evaluated at the given target;
// remote operands are coerced there first (Fig. 4b).
func (g *gen) compileValue(b *block, env *scope, e lang.Expr, to target) spmd.VExpr {
	switch e := e.(type) {
	case *lang.NumLit:
		return spmd.VConst{F: e.Val}
	case *lang.BoolLit:
		if e.Val {
			return spmd.VConst{F: 1}
		}
		return spmd.VConst{F: 0}
	case *lang.VarRef:
		sym := g.info.SymbolOf(e)
		switch sym.Kind {
		case sem.SymConst:
			return spmd.VConst{F: sym.Const}
		case sem.SymLoopVar:
			return spmd.VInt{X: expr.V(env.lookup(sym).name)}
		default:
			bnd := env.lookup(sym)
			from := ownerOfScalar(sym)
			if from.all {
				return spmd.VVar{Name: bnd.name} // replicated: read own copy
			}
			tmp := g.coerceScalar(b, bnd, to)
			return spmd.VVar{Name: tmp}
		}
	case *lang.IndexExpr:
		sym := g.info.SymbolOf(e)
		bnd := env.lookup(sym)
		idx := make([]expr.Expr, len(e.Indices))
		for i, ix := range e.Indices {
			idx[i] = g.compileIndex(b, env, ix)
		}
		d := sym.Dist
		if d.Kind() == dist.KindReplicated {
			// Everyone has a copy: plain local read at the use site.
			tmp := g.tmp()
			localIdx := d.SymbolicLocal(idx)
			if len(localIdx) == 1 {
				localIdx = append(localIdx, expr.C(1))
			}
			g.guarded(b, to, []spmd.Stmt{&spmd.ARead{Dst: tmp, Array: bnd.name, Idx: localIdx}})
			return spmd.VVar{Name: tmp}
		}
		tmp := g.coerceElem(b, bnd.name, d, idx, to)
		return spmd.VVar{Name: tmp}
	case *lang.UnExpr:
		return spmd.VUn{Op: e.Op, X: g.compileValue(b, env, e.X, to)}
	case *lang.BinExpr:
		l := g.compileValue(b, env, e.L, to)
		r := g.compileValue(b, env, e.R, to)
		return spmd.VBin{Op: e.Op, L: l, R: r}
	case *lang.CallExpr:
		res := g.integrateCall(b, env, e.Pos, e.Name, e.Args)
		if res == nil {
			g.failf(e.Pos, "procedure %s returns no value", e.Name)
		}
		if res.isArray {
			g.failf(e.Pos, "array-valued call used as a scalar")
		}
		from := target{all: true}
		if pp, ok := dist.ProcOf(res.dist); ok {
			from = procTarget(expr.C(pp))
		}
		if from.all {
			return spmd.VVar{Name: res.name}
		}
		tmp := g.tmp()
		co := &spmd.Coerce{Dst: tmp, Var: res.name, Owner: from.proc, Tag: g.tag()}
		if to.all {
			co.NeederAll = true
		} else {
			co.Needer = to.proc
		}
		b.emit(co)
		return spmd.VVar{Name: tmp}
	default:
		g.failf(e.Position(), "unsupported expression")
		return nil
	}
}
