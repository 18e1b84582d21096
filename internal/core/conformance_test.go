package core_test

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"procdecomp/internal/bench"
	"procdecomp/internal/core"
	"procdecomp/internal/exec"
	"procdecomp/internal/expr"
	"procdecomp/internal/gen"
	"procdecomp/internal/spmd"
	"procdecomp/internal/xform"
)

// Conformance property: on gen's corpus, every point of the standard
// pipeline — run-time resolution, compile-time resolution and Optimized
// I–III — computes exactly the sequential interpreter's result. This is the
// repository's strongest correctness statement: the process decomposition is
// semantics-preserving across the whole compilation space, not just on the
// paper's example. The corpus is checked in three shares, one test each:
// generated stencil programs under random decompositions and machine sizes;
// the same multiplexed on fewer nodes; and hand-written rows.
func TestConformanceRandomStencils(t *testing.T) {
	checkCorpus(t, func(c gen.Case) bool { return c.Nodes == 0 && !strings.HasPrefix(c.Name, "row/") })
}

// Conformance with several processes per node: the specialized processes
// co-scheduled on fewer physical nodes must still match the sequential
// semantics (the §5.4 machine mode changes timing, and must not change
// meaning).
func TestConformanceMultiplexed(t *testing.T) {
	checkCorpus(t, func(c gen.Case) bool { return c.Nodes > 0 })
}

// Conformance on shapes the generator does not draw, each checked at every
// pipeline point against the sequential interpreter.
func TestConformanceRows(t *testing.T) {
	checkCorpus(t, func(c gen.Case) bool { return strings.HasPrefix(c.Name, "row/") })
}

// checkCorpus checks every corpus case that in selects at every pipeline
// point against the sequential interpreter.
func checkCorpus(t *testing.T, in func(gen.Case) bool) {
	t.Helper()
	cases, err := gen.CompiledCorpus()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, c := range cases {
		if !in(c.Case) {
			continue
		}
		n++
		if _, err := gen.Check(c, c.Config()); err != nil {
			t.Errorf("%s S=%d: %v\n%s", c.Name, c.Procs, err, c.Src)
		}
	}
	if n == 0 {
		t.Fatal("no corpus case selected")
	}
	t.Logf("%d cases", n)
}

// Conformance on what each step of the pipeline moves, checked from outside,
// rtr → ctr → opt1 → opt2 → opt3: whatever a step does to packaging, every
// process sends exactly as many values to every other process as before it,
// and receives exactly as many from it (locality decides what moves; the
// steps only re-batch it), and no more messages are sent. Compile-time
// resolution sends exactly the messages run-time resolution does, in the
// same order on every process, peer, tag and value count alike (Footnote 3:
// 31,752 = 31,752 on the paper's example); only the passes after it may
// batch them. Both sides of a step are walked, not run: (*exec.Image).Walk
// hands a Sink exactly a run's message shapes. A walk never matches a send
// with a receive, so both ends are counted.
//
// Domain: a case that branches on an element value (gen.Case.StopsWalk) is
// outside it; its walks must stop, and no other case's may. Every pass must
// apply on some corpus case, not only on Gauss-Seidel.
func TestConformanceValuesInvariant(t *testing.T) {
	steps, applied, outside := 0, 0, 0
	check := func(c *gen.Compiled) {
		var before *traffic
		for i, st := range c.Stages {
			at := fmt.Sprintf("%s S=%d %s", c.Name, c.Procs, gen.Label(c.Points[i]))
			if st.Err != nil {
				t.Fatalf("%s: %v\n%s", at, st.Err, c.Src)
			}
			after, err := walkTraffic(c.Images[i], c.Procs)
			if (err != nil) != c.StopsWalk {
				t.Errorf("%s: walk error %v, branches on an element value %v\n%s", at, err, c.StopsWalk, c.Src)
			}
			if err != nil || c.StopsWalk {
				outside++
				t.Logf("%s: outside the domain: %v", at, err)
				return
			}
			if before != nil {
				steps++
				if c.First[i] == i {
					applied++
				}
				if !maps.Equal(after.received, before.received) {
					t.Errorf("%s: values received per (src, dst) moved: %v, before the pass %v\n%s", at, after.received, before.received, c.Src)
				}
				if !maps.Equal(after.sent, before.sent) {
					t.Errorf("%s: values sent per (src, dst) moved: %v, before the pass %v\n%s", at, after.sent, before.sent, c.Src)
				}
				if after.messages > before.messages || c.Points[i].Mode == "ctr" && after.messages != before.messages {
					t.Errorf("%s: the step moved the messages sent: %d, before it %d\n%s", at, after.messages, before.messages, c.Src)
				}
				for p := range c.Procs {
					if c.Points[i].Mode == "ctr" && !slices.Equal(after.log[p], before.log[p]) {
						t.Errorf("%s: process %d's messages (peer, tag, values) moved\n%s", at, p, c.Src)
					}
				}
			}
			before = after
		}
	}
	cases, err := gen.CompiledCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		check(c)
	}
	if modes := gen.Unexercised(cases); len(modes) > 0 {
		t.Errorf("no corpus case has an image of its own at %v: only Gauss-Seidel checks those passes", modes)
	}
	for _, c := range gaussSeidel(t) {
		check(c)
	}
	t.Logf("%d pass steps checked, %d of them on programs the pass changed; %d cases outside the domain", steps, applied, outside)
	if outside == 0 {
		t.Error("no case outside the domain: the corpus has lost its branches on element values")
	}
}

// gaussSeidel is the paper's program and its reversed form at N = 16 on 2,
// 3, 4 and 8 processes, opt3 at blk 1 and 4, through gen's front half.
func gaussSeidel(t *testing.T) []*gen.Compiled {
	t.Helper()
	var out []*gen.Compiled
	for _, procs := range []int{2, 3, 4, 8} {
		for _, blk := range []int64{1, 4} {
			for _, c := range []gen.Case{{Name: "Gauss-Seidel", Src: bench.GSSource}, {Name: "reversed Gauss-Seidel", Src: bench.GSReversedSource}} {
				c.Entry, c.Procs, c.Blk, c.Defines = "gs_iteration", procs, blk, map[string]int64{"N": 16}
				cc, err := gen.Compile(c)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, cc)
			}
		}
	}
	return out
}

// Partition property of compile-time resolution: for every guard condition
// restrictLoop solves, on gen's corpus and on Gauss-Seidel and its reversed
// form, the owned sets of p = 0 … S−1 (the loop's range intersected with each
// solved class) partition the range at the case's sizes. Every member lies
// in the range and solves owner == p, no iteration is in two sets, each
// set's Count is its number of members, and the Counts sum to the range's
// size. A range whose bounds name an outer loop's variable (j to N) is
// checked with that variable at each value from −8 to 16 that leaves
// hi ≥ lo − 1, where Count is exact.
func TestRestrictedSetsPartitionTheLoop(t *testing.T) {
	cases, err := gen.CompiledCorpus()
	if err != nil {
		t.Fatal(err)
	}
	seen, symbolic := map[string]bool{}, 0
	for _, c := range append(cases, gaussSeidel(t)...) {
		rtr := slices.IndexFunc(c.Points, func(pt xform.Point) bool { return pt.Mode == "rtr" })
		for _, g := range core.SolvedGuards(c.Stages[rtr].Progs[0], int64(c.Procs)) {
			key := fmt.Sprintf("%v == p, %s = %v to %v", g.Cond, g.Var, g.Lo, g.Hi)
			if seen[key] {
				continue
			}
			seen[key] = true
			if len(freeVars(g.Lo, g.Hi)) > 0 {
				symbolic++
			}
			if err := partitions(g); err != nil {
				t.Errorf("%s S=%d: %s: %v", c.Name, c.Procs, key, err)
			}
		}
	}
	if len(seen) == 0 || symbolic == 0 {
		t.Fatalf("restrictLoop solved %d guards, %d of them over a range with a symbolic bound", len(seen), symbolic)
	}
	t.Logf("%d distinct solved guards, %d over a range with a symbolic bound", len(seen), symbolic)
}

// A loop whose one owned set starts at an outer loop's variable becomes
// Fig. 5's strided loop from that symbolic first iteration: the corpus row
// built for it specializes with no run-time guard left.
func TestOneSymbolicSetIsStrided(t *testing.T) {
	cases, err := gen.CompiledCorpus()
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(cases, func(c *gen.Compiled) bool { return c.Name == "row/loop from the outer variable" })
	if i < 0 {
		t.Fatal("the corpus has no row whose loop starts at an outer variable")
	}
	c := cases[i]
	ctr := slices.IndexFunc(c.Points, func(pt xform.Point) bool { return pt.Mode == "ctr" })
	for _, prog := range c.Stages[ctr].Progs {
		spmd.Inspect(prog.Body, func(st spmd.Stmt) bool {
			if g, ok := st.(*spmd.Guard); ok {
				t.Errorf("process %d keeps a run-time guard on %v:\n%s", prog.Proc, g.Proc, spmd.Format(prog))
			}
			return true
		})
	}
}

// partitions reports how the owned sets of g's condition fail to partition
// its loop's range, at each binding of the range's other variables.
func partitions(g core.SolvedGuard) error {
	free := freeVars(g.Lo, g.Hi)
	if len(free) == 0 {
		return partitionsAt(g, expr.Env{})
	}
	checked := false
	for k := int64(-8); k <= 16; k++ {
		env := expr.Env{}
		for _, v := range free {
			env[v] = k
		}
		lo, err := g.Lo.Eval(env)
		if err != nil {
			return err
		}
		hi, err := g.Hi.Eval(env)
		if err != nil {
			return err
		}
		if lo > hi+1 {
			continue
		}
		if err := partitionsAt(g, env); err != nil {
			return fmt.Errorf("at %v: %w", env, err)
		}
		checked = true
	}
	if !checked {
		return fmt.Errorf("no binding of %v leaves a range", free)
	}
	return nil
}

// partitionsAt is partitions with the range's other variables bound by env.
func partitionsAt(g core.SolvedGuard, env expr.Env) (err error) {
	eval := func(e expr.Expr, env expr.Env) int64 {
		v, bad := e.Eval(env)
		if bad != nil && err == nil {
			err = fmt.Errorf("%v: %w", e, bad)
		}
		return v
	}
	at := maps.Clone(env)
	lo, hi := eval(g.Lo, env), eval(g.Hi, env)
	period, _ := expr.Solve(g.Cond, 0, g.Var)
	owner, total := map[int64]int64{}, int64(0)
	for p := range period.Stride {
		class, ok := expr.Solve(g.Cond, p, g.Var)
		if !ok {
			return fmt.Errorf("p = %d is not solved", p)
		}
		set := expr.Range(g.Lo, g.Hi).Intersect(class)
		first, last, members := eval(set.First, env), eval(set.Hi, env), int64(0)
		for v := first; err == nil && v <= last; v += set.Stride {
			if v < lo {
				return fmt.Errorf("p = %d owns %d, below the range", p, v)
			}
			if q, twice := owner[v]; twice {
				return fmt.Errorf("%d is owned by %d and %d", v, q, p)
			}
			at[g.Var] = v
			if got := eval(g.Cond, at); got != p {
				return fmt.Errorf("p = %d owns %d, whose owner is %d", p, v, got)
			}
			owner[v] = p
			members++
		}
		n := eval(set.Count(), env)
		if err != nil {
			return err
		}
		if n != members {
			return fmt.Errorf("p = %d: Count %v is %d, the set has %d members", p, set.Count(), n, members)
		}
		total += n
	}
	if size := max(0, hi-lo+1); total != size {
		return fmt.Errorf("the Counts sum to %d, the range holds %d", total, size)
	}
	return err
}

// traffic is what the walks of every process of an image send and receive.
type traffic struct {
	received map[[2]int]int64 // values received, by (src, dst)
	sent     map[[2]int]int64 // values sent, by (src, dst)
	messages int64            // messages sent
	log      [][]int64        // each process's messages: send or receive, peer, tag, values
}

// walkTraffic walks every process of im and counts its traffic.
func walkTraffic(im *exec.Image, procs int) (*traffic, error) {
	tr := &traffic{received: map[[2]int]int64{}, sent: map[[2]int]int64{}, log: make([][]int64, procs)}
	for p := 0; p < procs; p++ {
		if err := im.Walk(p, &counter{tr: tr, me: p, procs: procs}); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// counter is the Sink of one process's walk: it adds the process's messages
// to tr.
type counter struct {
	tr        *traffic
	me, procs int
}

func (c *counter) Procs() int      { return c.procs }
func (c *counter) Ops(int64)       {}
func (c *counter) Mem(int64)       {}
func (c *counter) LoopStep()       {}
func (c *counter) LoopSteps(int64) {}
func (c *counter) Send(dst int, tag int64, values int) error {
	c.tr.messages++
	c.tr.sent[[2]int{c.me, dst}] += int64(values)
	c.tr.log[c.me] = append(c.tr.log[c.me], 0, int64(dst), tag, int64(values))
	return nil
}
func (c *counter) Recv(src int, tag int64, values int) error {
	c.tr.received[[2]int{src, c.me}] += int64(values)
	c.tr.log[c.me] = append(c.tr.log[c.me], 1, int64(src), tag, int64(values))
	return nil
}

// freeVars names the free variables of es, each once: the names a Compiler
// asks a slot of.
func freeVars(es ...expr.Expr) []string {
	var names []string
	k := expr.Compiler{Slot: func(name string) int32 {
		if !slices.Contains(names, name) {
			names = append(names, name)
		}
		return 0
	}}
	for _, e := range es {
		k.Compile(e)
	}
	return names
}
