package autotune

import (
	"errors"
	"fmt"
	"sync"

	"procdecomp/internal/dist"
	"procdecomp/internal/exec"
	"procdecomp/internal/istruct"
	"procdecomp/internal/lang"
	"procdecomp/internal/sem"
	"procdecomp/internal/spmd"
	"procdecomp/internal/xform"
)

// A Workload is the program under search: its source, the entry procedure,
// and the name of the dist declaration the search retargets per candidate.
type Workload struct {
	Name string
	// Source is the Idn program text. It is parsed once; each candidate
	// retargets a private copy of the tree, so neither is ever mutated.
	Source string
	// Entry is the procedure compiled and measured.
	Entry string
	// Dist names the `dist` declaration whose mapping the search varies.
	Dist string
	// Defines overrides source constants (e.g. the grid size N).
	Defines map[string]int64

	parseOnce sync.Once
	parsed    *lang.Program
	parseErr  error

	refMu  sync.Mutex
	refOut *exec.Outcome
}

// parse returns a copy of the parsed source that the caller may rewrite.
func (w *Workload) parse() (*lang.Program, error) {
	w.parseOnce.Do(func() { w.parsed, w.parseErr = lang.Parse(w.Source) })
	if w.parseErr != nil {
		return nil, w.parseErr
	}
	return lang.CloneProgram(w.parsed), nil
}

// compileAll is the front half every candidate of one mapping shares, and
// the back half at each of their pipeline points: take a copy of the parsed
// source, retarget the distribution to m (nil compiles the program exactly as
// written — the annotation the paper's programmer chose, for the baseline run
// that anchors the model), semantic-check at the machine size, and hand the
// points to xform.CompileAll. The error is the mapping's; a point that fails
// alone says so in its Stage.
func (w *Workload) compileAll(m *Mapping, points []xform.Point, procs int) (*sem.Info, []xform.Stage, error) {
	prog, err := w.parse()
	if err != nil {
		return nil, nil, err
	}
	if m != nil {
		// Reject mappings the machine cannot execute before they are compiled
		// in: a degenerate or out-of-machine mapping would otherwise panic deep
		// in dist/exec instead of surfacing as an infeasible candidate.
		if err := m.Validate(int64(procs)); err != nil {
			return nil, nil, err
		}
		if err := Retarget(prog, w.Dist, *m); err != nil {
			return nil, nil, err
		}
	}
	info, errs := sem.Check(prog, sem.Config{Procs: int64(procs), Defines: w.Defines})
	if len(errs) > 0 {
		return nil, nil, errs[0]
	}
	return info, xform.CompileAll(info, w.Entry, points), nil
}

// built is one candidate ready to walk and to run: the lowered image tier 1
// makes and tier 3 runs, and the checked program the sequential reference
// interprets.
type built struct {
	img  *exec.Image
	info *sem.Info
}

// lower turns one compiled point into a built candidate.
func lower(info *sem.Info, st xform.Stage, procs int) (*built, error) {
	if st.Err != nil {
		if errors.Is(st.Err, xform.ErrUnknownMode) {
			return nil, fmt.Errorf("autotune: %w", st.Err)
		}
		return nil, st.Err
	}
	img, err := exec.LowerAll(st.Progs, procs)
	if err != nil {
		return nil, err
	}
	return &built{img: img, info: info}, nil
}

// build compiles and lowers a single candidate (or, with m nil, the program
// as written) through the path the search takes for a whole mapping.
func (w *Workload) build(m *Mapping, mode string, blk int64, procs int) (*built, error) {
	info, stages, err := w.compileAll(m, []xform.Point{{Mode: mode, Blk: blk}}, procs)
	if err != nil {
		return nil, err
	}
	return lower(info, stages[0], procs)
}

// inputs builds the istruct.Pattern matrix of each entry parameter, by name.
// A distributed run only reads them (exec scatters copies to the owners), so
// one set serves every run of a search.
func (w *Workload) inputs(info *sem.Info) (map[string]*istruct.Matrix, error) {
	p, ok := info.Procs[w.Entry]
	if !ok {
		return nil, fmt.Errorf("autotune: no procedure %s", w.Entry)
	}
	ins := map[string]*istruct.Matrix{}
	for _, prm := range p.Params {
		if prm.Type.Base != lang.TMatrix {
			return nil, fmt.Errorf("autotune: entry parameter %s is not a matrix", prm.Name)
		}
		m, err := istruct.Pattern(prm.Name, prm.Type.Dims[0], prm.Type.Dims[1])
		if err != nil {
			return nil, err
		}
		ins[prm.Name] = m
	}
	return ins, nil
}

// reference runs the sequential interpreter once per workload and caches the
// outcome: every candidate's distributed result is compared against it.
func (w *Workload) reference(info *sem.Info) (*exec.Outcome, error) {
	w.refMu.Lock()
	defer w.refMu.Unlock()
	if w.refOut != nil {
		return w.refOut, nil
	}
	ins, err := w.inputs(info)
	if err != nil {
		return nil, err
	}
	var args []exec.ArgVal
	for _, prm := range info.Procs[w.Entry].Params {
		args = append(args, exec.ArgVal{Matrix: ins[prm.Name]})
	}
	out, err := exec.RunSequential(info, w.Entry, args)
	if err != nil {
		return nil, err
	}
	w.refOut = out
	return out, nil
}

// validate compares a distributed outcome's returned array with the
// sequential reference, identifying it by name the way pdrun does.
func (w *Workload) validate(out *exec.SPMDOutcome, outputs []spmd.OutVar, info *sem.Info) error {
	seq, err := w.reference(info)
	if err != nil {
		return fmt.Errorf("sequential reference failed: %w", err)
	}
	if !seq.HasRet || seq.Ret.Matrix == nil {
		return nil // nothing to compare
	}
	want := seq.Ret.Matrix
	retName, lastArray := "", ""
	for _, o := range outputs {
		if !o.IsArray {
			continue
		}
		lastArray = o.Name
		if o.Name == want.Name() {
			retName = o.Name
		}
	}
	if retName == "" {
		retName = lastArray
	}
	if retName == "" {
		return fmt.Errorf("the entry returns an array but the compiled program has no array output")
	}
	got := out.Arrays[retName]
	if got == nil {
		return fmt.Errorf("output array %s missing from the distributed result", retName)
	}
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		return fmt.Errorf("output array %s is %dx%d, reference is %dx%d",
			retName, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i := int64(1); i <= want.Rows(); i++ {
		for j := int64(1); j <= want.Cols(); j++ {
			if want.Defined(i, j) != got.Defined(i, j) {
				return fmt.Errorf("definedness mismatch at (%d,%d)", i, j)
			}
			if !want.Defined(i, j) {
				continue
			}
			vw, _ := want.Read(i, j)
			vg, _ := got.Read(i, j)
			if d := vw - vg; d > 1e-9 || d < -1e-9 {
				return fmt.Errorf("value mismatch at (%d,%d): %g vs %g", i, j, vg, vw)
			}
		}
	}
	return nil
}

// Retarget rewrites the program's named distribution to the candidate
// mapping. Named families mutate the dist declaration in place; all/single
// have no declaration form, so every `on <name>` annotation is rewritten to
// `on all` / `on proc(0)` instead.
func Retarget(prog *lang.Program, distName string, m Mapping) error {
	switch m.Kind {
	case dist.KindReplicated, dist.KindSingle:
		repl := &lang.MapExpr{Kind: lang.MapAll}
		if m.Kind == dist.KindSingle {
			repl = &lang.MapExpr{Kind: lang.MapProc, Proc: &lang.NumLit{Val: 0, IsInt: true}}
		}
		if n := rewriteUses(prog, distName, repl); n == 0 {
			return fmt.Errorf("autotune: program has no uses of dist %s", distName)
		}
		return nil
	case dist.KindBlock2D:
		if m.PR < 1 || m.PC < 1 {
			return fmt.Errorf("autotune: block2d grid %dx%d invalid", m.PR, m.PC)
		}
		return rewriteDecl(prog, distName, "block2d", []lang.Expr{intLit(m.PR), intLit(m.PC)})
	case dist.KindCyclicCols, dist.KindCyclicRows, dist.KindBlockCols,
		dist.KindBlockRows, dist.KindCyclicVec, dist.KindBlockVec:
		if m.Span < 1 {
			return fmt.Errorf("autotune: %s span %d invalid", m.Kind, m.Span)
		}
		return rewriteDecl(prog, distName, m.Kind.String(), []lang.Expr{intLit(m.Span)})
	}
	return fmt.Errorf("autotune: cannot retarget to %v", m.Kind)
}

func intLit(v int64) lang.Expr { return &lang.NumLit{Val: float64(v), IsInt: true} }

func rewriteDecl(prog *lang.Program, distName, builtin string, args []lang.Expr) error {
	for _, d := range prog.Decls {
		if dd, ok := d.(*lang.DistDecl); ok && dd.Name == distName {
			dd.Builtin = builtin
			dd.Args = args
			return nil
		}
	}
	return fmt.Errorf("autotune: program has no dist declaration %s", distName)
}

// rewriteUses replaces every `on distName` mapping annotation in the program
// with repl, returning how many sites changed.
func rewriteUses(prog *lang.Program, distName string, repl *lang.MapExpr) int {
	n := 0
	swap := func(m **lang.MapExpr) {
		if *m != nil && (*m).Kind == lang.MapNamed && (*m).Name == distName {
			c := *repl
			c.Pos = (*m).Pos
			*m = &c
			n++
		}
	}
	swapSlice := func(ms []lang.MapExpr) {
		for i := range ms {
			if ms[i].Kind == lang.MapNamed && ms[i].Name == distName {
				c := *repl
				c.Pos = ms[i].Pos
				ms[i] = c
				n++
			}
		}
	}
	var walkExpr func(e lang.Expr)
	var walkBlock func(b *lang.Block)
	walkExpr = func(e lang.Expr) {
		switch e := e.(type) {
		case *lang.BinExpr:
			walkExpr(e.L)
			walkExpr(e.R)
		case *lang.UnExpr:
			walkExpr(e.X)
		case *lang.IndexExpr:
			for _, ix := range e.Indices {
				walkExpr(ix)
			}
		case *lang.CallExpr:
			swapSlice(e.DistArgs)
			for _, a := range e.Args {
				walkExpr(a)
			}
		}
	}
	walkBlock = func(b *lang.Block) {
		if b == nil {
			return
		}
		for _, st := range b.Stmts {
			switch st := st.(type) {
			case *lang.LetStmt:
				swap(&st.Map)
				if st.Init != nil {
					walkExpr(st.Init)
				}
			case *lang.AssignStmt:
				walkExpr(st.Value)
			case *lang.StoreStmt:
				for _, ix := range st.Indices {
					walkExpr(ix)
				}
				walkExpr(st.Value)
			case *lang.ForStmt:
				walkExpr(st.Lo)
				walkExpr(st.Hi)
				if st.Step != nil {
					walkExpr(st.Step)
				}
				walkBlock(st.Body)
			case *lang.IfStmt:
				walkExpr(st.Cond)
				walkBlock(st.Then)
				walkBlock(st.Else)
			case *lang.CallStmt:
				swapSlice(st.DistArgs)
				for _, a := range st.Args {
					walkExpr(a)
				}
			case *lang.ReturnStmt:
				if st.Value != nil {
					walkExpr(st.Value)
				}
			}
		}
	}
	for _, d := range prog.Decls {
		pd, ok := d.(*lang.ProcDecl)
		if !ok {
			continue
		}
		for i := range pd.Params {
			swap(&pd.Params[i].Map)
		}
		swap(&pd.RetMap)
		walkBlock(pd.Body)
	}
	return n
}
