package autotune

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"procdecomp/internal/dist"
	"procdecomp/internal/exec"
	"procdecomp/internal/lang"
	"procdecomp/internal/sem"
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

// reference runs the sequential interpreter once per workload and keeps the
// outcome: every candidate's distributed result is checked against it.
func (w *Workload) reference(info *sem.Info) (*exec.Outcome, error) {
	w.refMu.Lock()
	defer w.refMu.Unlock()
	if w.refOut == nil {
		ref, err := exec.Reference(info, w.Entry)
		if err != nil {
			return nil, err
		}
		w.refOut = ref
	}
	return w.refOut, nil
}

// validate checks a built candidate's distributed outcome against the
// workload's reference.
func (w *Workload) validate(out *exec.SPMDOutcome, b *built) error {
	ref, err := w.reference(b.info)
	if err != nil {
		return err
	}
	return ref.Check(b.img.Outputs(), out)
}

// PickDist resolves which dist declaration of prog a search varies: the named
// one, or the program's only one.
func PickDist(prog *lang.Program, name string) (string, error) {
	var found []string
	for _, d := range prog.Decls {
		if dd, ok := d.(*lang.DistDecl); ok {
			found = append(found, dd.Name)
			if dd.Name == name {
				return name, nil
			}
		}
	}
	if name != "" {
		return "", fmt.Errorf("no dist declaration %s (program has: %s)", name, strings.Join(found, ", "))
	}
	switch len(found) {
	case 0:
		return "", fmt.Errorf("the program has no dist declaration to retarget")
	case 1:
		return found[0], nil
	default:
		return "", fmt.Errorf("the program has %d dist declarations (%s); name one",
			len(found), strings.Join(found, ", "))
	}
}

// Retarget rewrites the program's named distribution to the candidate
// mapping. A family that takes parameters has its dist declaration rewritten
// in place; all and single have no declaration form, so every `on <name>`
// annotation is rewritten to `on all` / `on proc(0)` instead. The family's
// rule is checked here for everything but the machine's size, which sem
// checks when it binds the rewritten program.
func Retarget(prog *lang.Program, distName string, m Mapping) error {
	args := m.args()
	if err := m.Kind.Check(args, math.MaxInt64); err != nil {
		return fmt.Errorf("autotune: %w", err)
	}
	if len(args) > 0 {
		lits := make([]lang.Expr, len(args))
		for i, a := range args {
			lits[i] = intLit(a)
		}
		return rewriteDecl(prog, distName, m.Kind.String(), lits)
	}
	repl := &lang.MapExpr{Kind: lang.MapAll}
	if m.Kind == dist.KindSingle {
		repl = &lang.MapExpr{Kind: lang.MapProc, Proc: intLit(0)}
	}
	if n := rewriteUses(prog, distName, repl); n == 0 {
		return fmt.Errorf("autotune: program has no uses of dist %s", distName)
	}
	return nil
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
// with repl, in place, returning how many sites changed.
func rewriteUses(prog *lang.Program, distName string, repl *lang.MapExpr) int {
	n := 0
	lang.Inspect(prog, func(node any) bool {
		if m, ok := node.(*lang.MapExpr); ok && m.Kind == lang.MapNamed && m.Name == distName {
			pos := m.Pos
			*m = *repl
			m.Pos = pos
			n++
		}
		return true
	})
	return n
}
