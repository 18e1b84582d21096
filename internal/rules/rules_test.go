// Package rules holds the repository's consolidation rules: each states on
// syntax where one decision may be made, and is held both to the tree and to
// the violations that once showed it working. Run it with go test; one rule
// runs alone as go test ./internal/rules -run 'TestRules/one_ledger'.
package rules

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// A file is one parsed Go source file, named by its slash-separated path
// from the module root.
type file struct {
	path  string
	fset  *token.FileSet
	ast   *ast.File
	nodes []ast.Node // every node, in source order
	// prose is each identifier, literal and comment, one a line, and
	// lines[k] where line k starts and what it was.
	prose string
	lines []line
	found map[string][][]int // matches in prose, by pattern
}

type line struct {
	at   int
	node ast.Node
}

// parse reads the file at path, or src when it is not nil, and flattens it
// once for every rule.
func parse(fset *token.FileSet, path, name string, src any) (file, error) {
	af, err := parser.ParseFile(fset, path, src, parser.ParseComments)
	if err != nil {
		return file{}, err
	}
	f := file{path: name, fset: fset, ast: af, found: map[string][][]int{}}
	var prose strings.Builder
	add := func(n ast.Node, text string) {
		f.lines = append(f.lines, line{prose.Len(), n})
		prose.WriteString(text)
		prose.WriteByte('\n')
	}
	ast.Inspect(af, func(n ast.Node) bool {
		switch n := n.(type) {
		case nil:
			return false
		case *ast.Ident:
			add(n, n.Name)
		case *ast.BasicLit:
			add(n, n.Value)
		}
		f.nodes = append(f.nodes, n)
		return true
	})
	for _, cg := range af.Comments {
		for _, c := range cg.List {
			add(c, c.Text)
		}
	}
	f.prose = prose.String()
	return f, nil
}

func (f file) test() bool { return strings.HasSuffix(f.path, "_test.go") }

// text is the k-th line of f's prose.
func (f file) text(k int) string {
	end := len(f.prose) - 1
	if k+1 < len(f.lines) {
		end = f.lines[k+1].at - 1
	}
	return f.prose[f.lines[k].at:end]
}

// at is a violation at n.
func (f file) at(n ast.Node, format string, args ...any) string {
	return fmt.Sprintf("%s:%d: %s", f.path, f.fset.Position(n.Pos()).Line, fmt.Sprintf(format, args...))
}

// A rule reports each place the files break it.
type rule struct {
	name   string
	check  func(files []file) []string
	plants []plant
}

// A plant is a violation the rule must report: files added to the tree, of
// which a path that exists stands for more source in that file.
type plant []source

type source struct{ path, src string }

// rules is the table, one row per rule. A row matches code on syntax, and
// runs the text patterns of what must stay gone over every identifier,
// literal and comment too (mentions), so a name cannot come back as a
// string or in prose either.
var rules = []rule{
	{
		// Compile-time resolution decides "is this process the owner?" in
		// one method, (*spec).on: yes splices, no drops, inconclusive keeps
		// a run-time guard. Only coerce's broadcast arm keeps its own
		// three-way switch, because its no case receives. Which iterations
		// a process owns is one expr.Owned set, solved by expr.Solve and
		// bounded by Intersect, and only restrictLoop asks for one; the
		// message passes only Count them. The names Solve replaced stay
		// gone: declared, called, or named through expr, in code or
		// comment (the solver's tests keep names such as
		// TestSolveModEqSimple, which this does not match).
		name:  "one ownership decision",
		check: ownershipDecision,
		plants: []plant{
			{{"internal/expr/asmod.go", "package expr\n\nfunc AsMod(e Expr) (Expr, int64, bool) { return e, 0, false }\n"}},
			{{"internal/expr/solve.go", "package expr\n\ntype Solution struct{}\n"}},
			{{"internal/core/solution_test.go", "package core_test\n\nimport \"procdecomp/internal/expr\"\n\nvar _ = expr.Solution{}\n"}},
			{{"internal/core/ctr.go", "package core\n\n// The first owned iteration is expr.FirstAtLeast(lo).\nvar _ = 0\n"}},
			{{"internal/core/ctr.go", "package core\n\nfunc (s *spec) third(e expr.Expr) bool { return expr.EqualTri(s.me(), e) == expr.Yes }\n"}},
			{{"internal/core/core.go", "package core\n\nvar _, _ = expr.Solve(expr.V(\"j\"), 0, \"j\")\n"}},
			{{"internal/xform/stripmine.go", "package xform\n\nvar _ = expr.Range(expr.C(1), expr.C(8)).Intersect(expr.Owned{})\n"}},
		},
	},
	{
		// Where a call or a mapping can appear in a tree is written once
		// per tree: code that only visits a front-end tree goes through
		// lang.Inspect, and code that only visits an SPMD body through
		// spmd.Inspect. Only code that builds or evaluates a front-end tree
		// keeps a ForStmt case — core, the sequential interpreter, clone,
		// Inspect itself, the printer and sem's checkBlock, one case in
		// check.go — and no hand-written walk closure over a statement list
		// comes back.
		name:  "one child rule",
		check: childRule,
		plants: []plant{
			{{"cmd/pdc/main.go", "package main\n\nfunc collectCalled(b *lang.Block) {\n\tfor _, st := range b.Stmts {\n\t\tswitch st := st.(type) {\n\t\tcase *lang.ForStmt:\n\t\t\tcollectCalled(st.Body)\n\t\t}\n\t}\n}\n"}},
			{{"internal/spmd/cgen.go", "package spmd\n\nfunc (g *cgen) decls(body []Stmt) {\n\tvar walk func(body []Stmt)\n\twalk = func(body []Stmt) {}\n\twalk(body)\n}\n"}},
			{{"internal/sem/check.go", "package sem\n\nfunc second(st lang.Stmt) {\n\tswitch st.(type) {\n\tcase *lang.ForStmt:\n\t}\n}\n"}},
		},
	},
	{
		// The message passes find their channel sites in one walk of the
		// programs, collect in xform.go, and test their applicability as
		// predicates over that census; one driver, Pass.Apply, takes a
		// census, rewrites the lowest-numbered channel a plan accepts, and
		// takes a fresh one. No other non-test xform file walks statement
		// lists (a function or closure whose parameters or results hold a
		// []spmd.Stmt, such as *[]spmd.Stmt, or an spmd.Inspect callback),
		// only the driver calls collect, and no exported Vectorize, Jam or
		// StripMine comes back: Pass.Apply is the only way a message pass
		// runs.
		name:  "one channel census",
		check: channelCensus,
		plants: []plant{
			{{"internal/xform/jam.go", "package xform\n\nfunc jamWalk(body []spmd.Stmt) {\n\tvar walk func([]spmd.Stmt)\n\twalk = func(b []spmd.Stmt) {}\n\twalk(body)\n}\n"}},
			{{"internal/xform/vectorize.go", "package xform\n\nfunc (s *suite) again(progs []*spmd.Program) { s.collect(progs) }\n"}},
			{{"internal/xform/pass.go", "package xform\n\nfunc Vectorize(progs []*spmd.Program) int { return 0 }\n"}},
			{{"internal/xform/jam.go", "package xform\n\nfunc (s *suite) again(body *[]spmd.Stmt) {}\n"}},
			{{"internal/xform/stripmine.go", "package xform\n\nfunc splice(lists map[int][]spmd.Stmt) [][]spmd.Stmt { return nil }\n"}},
		},
	},
	{
		// Compile-time resolution keeps or drops the generic program's
		// statements and never rewrites one it keeps; the generic program
		// never mentions me. core reserves the name and exec binds it for
		// programs built by hand; no other product code names spmd.Me, and
		// so nothing substitutes it.
		name:  "me is only reserved and bound",
		check: meNamed,
		plants: []plant{
			{{"internal/core/ctr.go", "package core\n\nfunc (s *spec) specialize(generic *spmd.Program) *spmd.Program {\n\tbody := spmd.CloneBody(generic.Body)\n\tspmd.SubstBody(body, spmd.Me, s.me())\n\treturn nil\n}\n"}},
		},
	},
	{
		// A traced run and a replayed DAG are attributed by the one backward
		// walk, (*analysis.Dump).CriticalPath: analysis.ReplayDump lays the
		// replay's timeline down as the spans a direct-mode trace records,
		// so there is no second walk with its own tie rule. Nor does
		// autotune rerun its winner traced to attribute what its replay
		// already predicts.
		name:  "one path walk",
		check: pathWalk,
		plants: []plant{
			{{"internal/analysis/report.go", "package analysis\n\nfunc (r *Report) CriticalPath() (*CriticalPath, error) { return nil, nil }\n"}},
			{{"internal/autotune/search.go", "package autotune\n\nfunc safeRerun(w *Workload) error { return nil }\n"}},
			{{"internal/autotune/report.go", "package autotune\n\n// The winner is rerun traced for its attribution.\nvar _ = 0\n"}},
		},
	},
	{
		// serve.Server keeps each count once, in its obs registry, and Stats
		// reads it from there: a same-line atomic mirror could only ever
		// disagree by being forgotten, so serve.go declares no atomic.Int64;
		// the result cache counts on the registry's pdserve_cache_ops_total
		// from the moment it opens, so cache.go declares none either. Every
		// report is text or JSON: no product file imports html/template.
		name:  "one ledger",
		check: ledger,
		plants: []plant{
			{{"internal/serve/serve.go", "package serve\n\ntype counters struct{ served atomic.Int64 }\n"}},
			{{"internal/serve/cache.go", "package serve\n\nvar hits atomic.Int64\n"}},
			{{"internal/analysis/html.go", "package analysis\n\nimport \"html/template\"\n\nvar _ = template.New\n"}},
		},
	},
	{
		// A decomposition family's name, rank, parameter count and
		// parameter rule are written once, in dist's table (family.go): sem
		// binds a dist declaration through it, and autotune parses,
		// enumerates, validates and retargets a mapping through it. The row,
		// column and vector families are one cyclic and one block rule,
		// each parameterised by its axis, so dist.go declares at most five
		// families (types with an Owner method). Idn's div and mod are
		// defined once, in expr (FloorDiv, EucMod).
		name:  "one family table",
		check: familyTable,
		plants: []plant{
			{{"internal/sem/sem.go", "package sem\n\nvar _ = map[string]int{\"cyclic_cols\": 2}\n"}},
			{{"internal/autotune/space.go", "package autotune\n\nfunc rank(k dist.Kind) int {\n\tswitch k {\n\tcase dist.KindBlock2D:\n\t\treturn 2\n\t}\n\treturn 1\n}\n"}},
			{{"internal/dist/dist.go", "package dist\n\ntype cyclicRows struct{}\n\nfunc (d cyclicRows) Owner(idx []int64) int64 { return 0 }\n"}},
			{{"internal/machine/div.go", "package machine\n\nfunc floorDiv(a, b int64) int64 { return a / b }\n"}},
		},
	},
	{
		// Each Idn operator is defined once, by its row of lang's table: its
		// token, binding power, operand class, result type and evaluation.
		// No product file outside internal/lang decides what an operator
		// means by switching on or comparing with a lang.Op, except
		// core.compileIndex: which operators an index admits is part of
		// core's affine index algebra.
		name:  "one operator table",
		check: operatorTable,
		plants: []plant{
			{{"internal/sem/check.go", "package sem\n\nfunc isAdd(e *lang.BinExpr) bool { return e.Op == lang.OpAdd }\n"}},
			{{"internal/xform/vectorize.go", "package xform\n\nfunc first(op lang.Op) bool { return op != lang.Op(0) }\n"}},
			{{"internal/core/core.go", "package core\n\nfunc folds(op lang.Op) bool {\n\tswitch op {\n\tcase lang.OpAdd, lang.OpMul:\n\t\treturn true\n\t}\n\treturn false\n}\n"}},
		},
	},
	{
		// Each distinct compiled stage of the search is one image record,
		// created in tier 1 and shared by its twins through every tier, so
		// no per-tier sharing record (walk, replay or run) grows back. Every
		// candidate evaluation goes through one helper, (*search).eval,
		// which turns a panic into an error; only the anchor keeps a recover
		// of its own, so search.go holds at most two.
		name:  "one search record",
		check: searchRecord,
		plants: []plant{
			{{"internal/autotune/search.go", "package autotune\n\ntype replay struct{ once sync.Once }\n"}},
			{{"internal/autotune/search.go", "package autotune\n\nfunc (im *image) run() {\n\tdefer func() { _ = recover() }()\n}\n"}},
		},
	},
	{
		// What it means for a distributed run to be right is written once:
		// exec.PatternInputs builds an entry's inputs, exec.Reference is the
		// sequential outcome on them, and (*exec.Outcome).Check is the only
		// comparison of a gathered result with it (its 1e-9 tolerance).
		// bench.Input is the one other input builder: pdperf imports it.
		// Tests compare the same way, except the two that hold a result to
		// an independent plain-Go oracle: exec/seq_test.go's goldenGS and
		// wavefront/scale_test.go's recurrence. The reference stays
		// independent of what it checks: seq.go imports no package of the
		// compiled side, and its code names nothing of the lowering or the
		// stepper, nor the by-name scope chain it once was.
		name:  "one checked run",
		check: checkedRun,
		plants: []plant{
			{{"cmd/pdrun/check.go", "package main\n\nconst tol = 1e-9\n"}},
			{{"internal/bench/fig_test.go", "package bench\n\nfunc near(a, b float64) bool { return a-b < 1e-12 && b-a < 1e-12 }\n"}},
			{{"internal/serve/api.go", "package serve\n\nvar _, _ = istruct.Pattern(\"Old\", 8, 8)\n"}},
			{{"internal/exec/seq.go", "package exec\n\nimport \"procdecomp/internal/expr\"\n\nvar _ = expr.C\n"}},
			{{"internal/exec/seq.go", "package exec\n\nvar depth = 0 // the stepper's depth\n"}},
			{{"internal/exec/seq.go", "package exec\n\nfunc (r *runner) pushScope() { r.scopes = append(r.scopes, map[string]*binding{}) }\n"}},
		},
	},
	{
		// Generated programs are drawn in one place, gen.Corpus, and go
		// through one front half, gen.Compile, so every generated program
		// gets every property: no Go file outside internal/gen draws a
		// program of its own with gen.Program.
		name:  "one property corpus",
		check: propertyCorpus,
		plants: []plant{
			{{"internal/core/conformance_test.go", "package core_test\n\nvar _, _ = gen.Program(nil)\n"}},
			{{"bench_test.go", "package procdecomp_test\n\nvar _, _ = gen.Program(rand.New(rand.NewSource(1)))\n"}},
		},
	},
	{
		// Every witness and golden test holds its golden through one call,
		// golden.Hold, which writes what it saw to $TMPDIR/<name>.observed<ext>
		// and names the first differing, missing and left-over record: no
		// test outside internal/golden writes an observed file itself.
		name:  "one witness hold",
		check: witnessHold,
		plants: []plant{
			{{"internal/bench/witness_test.go", "package bench\n\nvar observed = filepath.Join(os.TempDir(), \"engine_witness.observed.json\")\n"}},
			{{"benchmarks/pdperf/pdperf_test.go", "package main\n\nfunc save(r result) { r.observed = true }\n"}},
		},
	},
	{
		// A lowered statement's control codes (its lo, hi, x and y) are
		// evaluated only by (*stepper).ctl, which reads and fills their
		// memo slots; the stepper's one other Eval is a value's integer leaf
		// (evalV's v.x). A keyed For's keys are evaluated at one site beside
		// ctl, (*stepper).keys. A keyed For is offered to the domain's tape
		// only from step.go's loop; a walk charges a played run at its one
		// site, charge's sink.LoopSteps, and the machine's tape (run.go) is
		// the only caller of (*machine.Proc).LoopSteps. The rule that second
		// shortcut replaced (fInert, inertOps, roleless, the domain's
		// loopSteps) stays gone, and no package-level switch (a bool, a var
		// block) or environment read can turn keys off.
		name:  "one memo path",
		check: memoPath,
		plants: []plant{
			{{"internal/exec/step.go", "package exec\n\nfunc (st *stepper) top(s *lstmt) int64 { return intOf(s.lo) }\n"}},
			{{"internal/exec/step.go", "package exec\n\nfunc (st *stepper) top(s *lstmt) int64 {\n\tv, _ := s.hi.Eval(&st.f)\n\treturn v\n}\n"}},
			{{"internal/exec/step.go", "package exec\n\nfunc (st *stepper) keys2(s *lstmt) { s.y.EvalAtoms(&st.f, nil) }\n"}},
			{{"internal/exec/run.go", "package exec\n\nfunc (st *stepper) again(s *lstmt) int64 { return st.d.tape(st, s, 0, 0, 1) }\n"}},
			{{"internal/exec/step.go", "package exec\n\nfunc (st *stepper) roleless(s *lstmt) bool { return false }\n"}},
			{{"internal/exec/keyed.go", "package exec\n\nvar withoutKeys bool\n"}},
			{{"internal/exec/lower.go", "package exec\n\nvar _ = os.Getenv(\"PD_NOKEYS\")\n"}},
			{{"internal/exec/keyed.go", "package exec\n\nfunc play(sink Sink, steps int64) { sink.LoopSteps(steps, 0) }\n"}},
			{{"internal/exec/abstract.go", "package exec\n\nfunc (a *abstract) skip(n int64) { a.Sink.LoopSteps(n) }\n"}},
		},
	},
	{
		// The machine is a single-threaded event loop with exact wake-ups:
		// its processes are iter.Pull coroutines and its mailboxes dense
		// per-(dst, src) FIFOs. No broadcast-wake path grows back, event.go
		// holds no channel and no go statement (Run's Cancel watcher in
		// machine.go is the package's one goroutine), and no map holds a
		// message queue or a wait table.
		name:  "one machine engine",
		check: machineEngine,
		plants: []plant{
			{{"internal/machine/machine.go", "package machine\n\ntype gate struct{ c *sync.Cond }\n\nfunc (g gate) open() { g.c.Broadcast() }\n"}},
			{{"internal/machine/event.go", "package machine\n\nfunc (ev *loop) start() {\n\tdone := make(chan bool)\n\tgo ev.run(done)\n}\n"}},
			{{"internal/machine/transport.go", "package machine\n\ntype queues struct {\n\tboxes map[key][]message\n}\n"}},
			{{"internal/machine/transport.go", "package machine\n\ntype waits struct {\n\twaiting map[int]key\n}\n"}},
		},
	},
	{
		// Every temp-file+fsync+rename, every fsync and every remove of a
		// durable file lives in internal/durable, behind its FS seam, where
		// the crash-point sweeps count it: serve calls durable.Install or
		// durable.Open and never hand-rolls the sequence.
		name:  "one crash-safe write mechanism",
		check: crashSafeWrite,
		plants: []plant{
			{{"internal/serve/cache.go", "package serve\n\nfunc put(dir, name string, b []byte) error {\n\tf, _ := os.CreateTemp(dir, name)\n\tf.Write(b)\n\tf.Sync()\n\treturn os.Rename(f.Name(), name)\n}\n"}},
			{{"internal/serve/journal.go", "package serve\n\nfunc drop(name string) error { return os.Remove(name) }\n"}},
		},
	},
	{
		// A tracked job has one record, *job: the queue, Server.jobs, the
		// event stream and recovery all hold it. What admission decided is
		// declared once, as payload, which the job, the journal's records
		// and the journal fold's entries embed: no second job type grows
		// back, and no struct but payload declares both a mapping and a
		// budget.
		name:  "one job record",
		check: jobRecord,
		plants: []plant{
			{{"internal/serve/jobs.go", "package serve\n\ntype recoveredJob struct{ id string }\n"}},
			{{"internal/serve/journal.go", "package serve\n\ntype entry struct {\n\tID      string\n\tMapping string\n\tBudget  int64\n}\n"}},
		},
	},
	{
		// A result reaches the cache at one site, runJob, in one of two
		// orders: a /jobs job installs before it settles, because recovery
		// reads a done job's bytes from the cache; a synchronous job stages
		// its bytes, settles (its reply goes out), then installs. No other
		// function of serve calls Put or Stage, where an install could land
		// back on the reply path or a reply before a journaled install.
		name:  "one install order",
		check: installOrder,
		plants: []plant{
			{{"internal/serve/api.go", "package serve\n\nfunc (s *Server) reply(j *job) { s.cache.Put(j.Key, j.result) }\n"}},
		},
	},
	{
		// A setting that every caller leaves at one value is a constant:
		// serve's panic backoff and log ring, adapt's smoothing, shift
		// threshold, search width and queue depth, load's job poll and the
		// phase experiment's shape (RunPhase takes only the seed), and the
		// machine's heartbeat. None of them comes back as a Config field,
		// nor does a PhaseConfig type.
		name:  "one value, one constant",
		check: oneValue,
		plants: []plant{
			{{"internal/serve/serve.go", "package serve\n\ntype Config struct {\n\tRetryBase time.Duration\n}\n"}},
			{{"internal/adapt/adapt.go", "package adapt\n\ntype Config struct {\n\tMinObs, QueueDepth int\n}\n"}},
			{{"internal/load/phase.go", "package load\n\ntype PhaseConfig struct{ Ops int }\n"}},
		},
	},
	{
		// Booting an in-process pdserve (cache dir, listener, client,
		// /readyz gate) and draining it (server first, then the scrape over
		// the wire, the strict parse and the reconciliation, then the
		// listener) are written once, in load.Boot and (*Target).Drain: no
		// other serve or load file listens or builds an http.Server, and no
		// other load file reconciles a scrape. cmd/pdserve owns the
		// production listener.
		name:  "one driver",
		check: oneDriver,
		plants: []plant{
			{{"internal/load/phase.go", "package load\n\nfunc boot() {\n\tln, _ := net.Listen(\"tcp\", \"127.0.0.1:0\")\n\tgo (&http.Server{}).Serve(ln)\n}\n"}},
			{{"internal/load/load.go", "package load\n\nfunc check(body []byte) error { return obs.VerifyScrape(body) }\n"}},
		},
	},
	{
		// Every exported package-level name and method of the product has
		// a product caller: a name only tests or test support use is
		// unexported, moved into a test file, or deleted with its claim. A
		// method whose name an interface declares is exempt. The few that
		// cannot go yet are listed in unusedExports or unusedMethods with
		// their reason. Every exported field of an option struct (a Config,
		// an Options, faults.Schedule) has a product setter, with no list.
		name:  "every export has a product caller",
		check: exportsUsed,
		plants: []plant{
			{{"internal/lang/unused.go", "package lang\n\nfunc Unused() {}\n"}},
			{
				{"internal/lang/tested.go", "package lang\n\nfunc Tested() {}\n"},
				{"internal/lang/tested_test.go", "package lang_test\n\nimport \"procdecomp/internal/lang\"\n\nvar _ = lang.Tested\n"},
			},
			{
				{"internal/dist/drawn.go", "package dist\n\nconst Drawn = 3\n"},
				{"internal/gen/drawn.go", "package gen\n\nimport \"procdecomp/internal/dist\"\n\nvar _ = dist.Drawn\n"},
			},
			{{"cmd/pdmap/search.go", "package main\n\nimport \"procdecomp/internal/autotune\"\n\nvar _ = autotune.Search\n"}},
			{
				{"internal/lang/tested.go", "package lang\n\nfunc (o Op) Tested() bool { return false }\n"},
				{"internal/lang/tested_test.go", "package lang_test\n\nimport \"procdecomp/internal/lang\"\n\nvar _ = lang.OpAdd.Tested()\n"},
			},
			{
				{"internal/dist/drawn.go", "package dist\n\nfunc (k Kind) Drawn() int { return 3 }\n"},
				{"internal/gen/drawn.go", "package gen\n\nimport \"procdecomp/internal/dist\"\n\nvar _ = dist.KindBlock2D.Drawn()\n"},
			},
			{{"cmd/pdc/unary.go", "package main\n\nimport \"procdecomp/internal/lang\"\n\nvar _ = lang.OpNeg.Unary()\n"}},
			{
				{"internal/machine/planted.go", "package machine\n\ntype Config struct{ Planted int }\n"},
				{"internal/machine/planted_test.go", "package machine\n\nfunc plant(cfg *Config) { cfg.Planted = 1 }\n"},
			},
			{
				{"internal/serve/planted.go", "package serve\n\ntype Config struct{ Planted int }\n"},
				{"internal/gen/planted.go", "package gen\n\nimport \"procdecomp/internal/serve\"\n\nvar _ = serve.Config{Planted: 1}\n"},
			},
			{
				{"internal/faults/planted.go", "package faults\n\ntype Schedule struct{ Planted int }\n"},
				{"internal/analysis/planted.go", "package analysis\n\ntype Costs struct{ Planted int }\n\nvar _ = Costs{Planted: 1}\n"},
			},
		},
	},
}

// in reports whether f's path starts with one of prefixes: a directory with
// its slash, or a file's path.
func in(prefixes ...string) func(file) bool {
	return func(f file) bool {
		return slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(f.path, p) })
	}
}

// under is in for non-test files.
func under(prefixes ...string) func(file) bool {
	return func(f file) bool { return !f.test() && in(prefixes...)(f) }
}

// inspect calls visit on every node of each file keep accepts.
func inspect(files []file, keep func(file) bool, visit func(f file, n ast.Node)) {
	for _, f := range files {
		if keep(f) {
			for _, n := range f.nodes {
				visit(f, n)
			}
		}
	}
}

// mentions reports each identifier, literal and comment of the files keep
// accepts whose text pattern matches. A file's matches are found once per
// pattern, so a plant costs only its own files.
func mentions(files []file, keep func(file) bool, pattern string) []string {
	re := patterns[pattern]
	if re == nil {
		re = regexp.MustCompile(pattern)
		patterns[pattern] = re
	}
	var bad []string
	for _, f := range files {
		if !keep(f) {
			continue
		}
		found, ok := f.found[pattern]
		if !ok {
			found = re.FindAllStringIndex(f.prose, -1)
			f.found[pattern] = found
		}
		for _, m := range found {
			k, _ := slices.BinarySearchFunc(f.lines, m[0]+1, func(l line, at int) int { return l.at - at })
			bad = append(bad, f.at(f.lines[k-1].node, "mentions %s", f.prose[m[0]:m[1]]))
		}
	}
	return bad
}

var patterns = map[string]*regexp.Regexp{}

// The files that may keep a ForStmt case: those that build or evaluate a
// front-end tree.
var forStmtCases = []string{"internal/core/core.go", "internal/exec/seq.go", "internal/lang/clone.go",
	"internal/lang/inspect.go", "internal/lang/printer.go", "internal/sem/check.go"}

func childRule(files []file) []string {
	var bad []string
	var with []string
	checkCases := 0
	for _, f := range files {
		if f.test() || !strings.HasPrefix(f.path, "internal/") && !strings.HasPrefix(f.path, "cmd/") {
			continue
		}
		cases := 0
		for _, n := range f.nodes {
			switch n := n.(type) {
			case *ast.CaseClause:
				if slices.ContainsFunc(n.List, func(e ast.Expr) bool { return isPtrTo(e, "ForStmt", "lang") }) {
					cases++
				}
			case *ast.ValueSpec:
				if fn, ok := n.Type.(*ast.FuncType); ok && listsStmts(fn.Params, "spmd", "lang") {
					bad = append(bad, f.at(n, "a walk closure over a statement list"))
				}
			}
		}
		if cases > 0 && !slices.Contains(with, f.path) {
			with = append(with, f.path)
		}
		if f.path == "internal/sem/check.go" {
			checkCases += cases
		}
	}
	slices.Sort(with)
	if !slices.Equal(with, forStmtCases) {
		bad = append(bad, fmt.Sprintf("the files with a ForStmt case are %v, want %v", with, forStmtCases))
	}
	if checkCases != 1 {
		bad = append(bad, fmt.Sprintf("internal/sem/check.go: %d ForStmt cases, want 1 (checkBlock)", checkCases))
	}
	return bad
}

func channelCensus(files []file) []string {
	var bad []string
	var collects []string
	for _, f := range files {
		if !strings.HasPrefix(f.path, "internal/xform/") {
			continue
		}
		walks := !f.test() && f.path != "internal/xform/xform.go"
		for _, n := range f.nodes {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv == nil && (n.Name.Name == "Vectorize" || n.Name.Name == "Jam" || n.Name.Name == "StripMine") {
					bad = append(bad, f.at(n, "declares %s: Pass.Apply is the only way a pass runs", n.Name.Name))
				}
			case *ast.FuncType:
				if walks && (listsStmts(n.Params, "spmd") || listsStmts(n.Results, "spmd")) {
					bad = append(bad, f.at(n, "a function over []spmd.Stmt outside the census"))
				}
			case *ast.CallExpr:
				switch {
				case walks && isCall(n, "spmd", "Inspect"):
					bad = append(bad, f.at(n, "an spmd.Inspect walk outside the census"))
				case callee(n) == "collect":
					collects = append(collects, fmt.Sprintf("%s:%d", f.path, f.fset.Position(n.Pos()).Line))
				}
			}
		}
	}
	if len(collects) != 1 || !strings.HasPrefix(collects[0], "internal/xform/pass.go:") {
		bad = append(bad, fmt.Sprintf("collect is called at %v, want once, by the driver in pass.go", collects))
	}
	return bad
}

func meNamed(files []file) []string {
	var bad []string
	for _, f := range files {
		if f.test() || strings.HasPrefix(f.path, "internal/spmd/") || f.path == "internal/exec/lower.go" || f.path == "internal/core/core.go" {
			continue
		}
		for _, n := range f.nodes {
			if isSel(n, "spmd", "Me") {
				bad = append(bad, f.at(n, "names spmd.Me"))
			}
		}
	}
	return bad
}

// The names expr.Solve replaced.
var retired = map[string]bool{"SolveModEq": true, "FirstAtLeast": true, "AsMod": true, "Solution": true}

func ownershipDecision(files []file) []string {
	decisions := 0
	bad := mentions(files, func(file) bool { return true }, `\bexpr\.(SolveModEq|FirstAtLeast|AsMod|Solution)\b`)
	for _, f := range files {
		for _, n := range f.nodes {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if retired[n.Name.Name] {
					bad = append(bad, f.at(n, "declares %s", n.Name.Name))
				}
			case *ast.TypeSpec:
				if retired[n.Name.Name] {
					bad = append(bad, f.at(n, "declares type %s", n.Name.Name))
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "expr" && retired[n.Sel.Name] {
					bad = append(bad, f.at(n, "names expr.%s", n.Sel.Name))
				}
			case *ast.CallExpr:
				name := callee(n)
				switch {
				case retired[name]:
					bad = append(bad, f.at(n, "calls %s", name))
				case name == "EqualTri" && f.path == "internal/core/ctr.go" && len(n.Args) > 0 && isCall(n.Args[0], "s", "me"):
					decisions++
				case f.test() || f.path == "internal/core/ctr.go" || strings.HasPrefix(f.path, "internal/expr/"):
				case isCall(n, "expr", "Solve"):
					bad = append(bad, f.at(n, "calls expr.Solve outside restrictLoop"))
				case name == "Intersect":
					bad = append(bad, f.at(n, "intersects an owned set outside restrictLoop"))
				}
			}
		}
	}
	if decisions > 2 {
		bad = append(bad, fmt.Sprintf("internal/core/ctr.go: %d EqualTri(s.me(), …) decisions, want at most 2: (*spec).on and the broadcast", decisions))
	}
	return bad
}

func pathWalk(files []file) []string {
	var bad, decls []string
	inspect(files, under("internal/", "cmd/", "examples/"), func(f file, n ast.Node) {
		if d, ok := n.(*ast.FuncDecl); ok && d.Name.Name == "CriticalPath" {
			decls = append(decls, f.path)
		}
	})
	if !slices.Equal(decls, []string{"internal/analysis/critical.go"}) {
		bad = append(bad, fmt.Sprintf("CriticalPath is declared in %v, want once, in internal/analysis/critical.go", decls))
	}
	return append(bad, mentions(files, under("internal/autotune/"), `\b(rerun|safeRerun)\b`)...)
}

func ledger(files []file) []string {
	var bad []string
	inspect(files, under("internal/serve/serve.go", "internal/serve/cache.go"), func(f file, n ast.Node) {
		if isSel(n, "atomic", "Int64") {
			bad = append(bad, f.at(n, "an atomic.Int64 beside the registry"))
		}
	})
	bad = append(bad, mentions(files, under("internal/serve/serve.go", "internal/serve/cache.go"), `atomic\.Int64`)...)
	return append(bad, mentions(files, under("internal/", "cmd/"), `"html/template"`)...)
}

func familyTable(files []file) []string {
	var bad []string
	owners := 0
	inspect(files, under("internal/sem/", "internal/autotune/"), func(f file, n ast.Node) {
		if n, ok := n.(*ast.CaseClause); ok {
			for _, e := range n.List {
				ast.Inspect(e, func(m ast.Node) bool {
					if sel, ok := m.(*ast.SelectorExpr); ok && isIdent(sel.X, "dist") && strings.HasPrefix(sel.Sel.Name, "Kind") {
						bad = append(bad, f.at(m, "switches on dist.%s", sel.Sel.Name))
					}
					return true
				})
			}
		}
	})
	bad = append(bad, mentions(files, under("internal/sem/", "internal/autotune/"), `"(cyclic_cols|cyclic_rows|block_cols|block_rows|block2d|all|single|cyclic|block)"|case .*dist\.Kind`)...)
	inspect(files, under("internal/dist/dist.go"), func(f file, n ast.Node) {
		if d, ok := n.(*ast.FuncDecl); ok && d.Recv != nil && d.Name.Name == "Owner" {
			owners++
		}
	})
	if owners > 5 {
		bad = append(bad, fmt.Sprintf("internal/dist/dist.go: %d families (Owner methods), want at most 5", owners))
	}
	inspect(files, func(f file) bool { return in("internal/", "cmd/")(f) && !in("internal/expr/")(f) }, func(f file, n ast.Node) {
		if d, ok := n.(*ast.FuncDecl); ok {
			if name := strings.ToLower(d.Name.Name); strings.HasPrefix(name, "floordiv") || strings.HasPrefix(name, "eucmod") {
				bad = append(bad, f.at(n, "defines %s outside expr", d.Name.Name))
			}
		}
	})
	return bad
}

func operatorTable(files []file) []string {
	var bad []string
	isOp := func(e ast.Expr) bool {
		if c, ok := e.(*ast.CallExpr); ok {
			e = c.Fun // a conversion, lang.Op(k)
		}
		sel, ok := e.(*ast.SelectorExpr)
		return ok && isIdent(sel.X, "lang") && strings.HasPrefix(sel.Sel.Name, "Op")
	}
	outside := func(f file) bool { return under("internal/", "cmd/", "examples/")(f) && !in("internal/lang/")(f) }
	var skip ast.Node // core.compileIndex, the index algebra
	for _, f := range files {
		if !outside(f) {
			continue
		}
		skip = nil
		for _, n := range f.nodes {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Name.Name == "compileIndex" && f.path == "internal/core/core.go" {
					skip = n
				}
			case *ast.CaseClause:
				if slices.ContainsFunc(n.List, isOp) && !within(n, skip) {
					bad = append(bad, f.at(n, "switches on a lang.Op"))
				}
			case *ast.BinaryExpr:
				if (n.Op == token.EQL || n.Op == token.NEQ) && (isOp(n.X) || isOp(n.Y)) && !within(n, skip) {
					bad = append(bad, f.at(n, "compares with a lang.Op"))
				}
			}
		}
	}
	return append(bad, mentions(files, outside, `case lang\.Op|[!=]= lang\.Op`)...)
}

func searchRecord(files []file) []string {
	var bad []string
	recovers := 0
	inspect(files, under("internal/autotune/"), func(f file, n ast.Node) {
		switch n := n.(type) {
		case *ast.TypeSpec:
			if name := n.Name.Name; name == "walk" || name == "replay" || name == "run" {
				bad = append(bad, f.at(n, "a per-tier record, type %s", name))
			}
		case *ast.CallExpr:
			if isIdent(n.Fun, "recover") && f.path == "internal/autotune/search.go" {
				recovers++
			}
		}
	})
	if recovers > 2 {
		bad = append(bad, fmt.Sprintf("internal/autotune/search.go: %d recover() calls, want at most 2: (*search).eval and the anchor", recovers))
	}
	bad = append(bad, mentions(files, under("internal/autotune/"), `type (walk|replay|run) struct`)...)
	return append(bad, mentions(files, under("internal/autotune/search.go"), `recover\(\)`)...)
}

// The two tests that hold a result to an independent plain-Go oracle, with a
// tolerance of their own.
var ownTolerance = []string{"internal/exec/seq_test.go", "internal/wavefront/scale_test.go"}

func checkedRun(files []file) []string {
	var bad []string
	compared := func(f file) bool {
		return in("internal/", "cmd/", "examples/")(f) && f.path != "internal/exec/check.go" && !slices.Contains(ownTolerance, f.path)
	}
	inspect(files, compared, func(f file, n ast.Node) {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.FLOAT {
			if v, err := strconv.ParseFloat(lit.Value, 64); err == nil && (v == 1e-9 || v == 1e-12) {
				bad = append(bad, f.at(n, "a tolerance of its own, %s", lit.Value))
			}
		}
	})
	bad = append(bad, mentions(files, compared, `1e-9|1e-12`)...)
	builds := func(f file) bool {
		return under("internal/", "cmd/", "examples/")(f) && f.path != "internal/exec/check.go" && f.path != "internal/bench/bench.go"
	}
	inspect(files, builds, func(f file, n ast.Node) {
		if c, ok := n.(*ast.CallExpr); ok && isSel(c.Fun, "istruct", "Pattern") {
			bad = append(bad, f.at(n, "builds an input of its own"))
		}
	})
	bad = append(bad, mentions(files, builds, `istruct\.Pattern\(`)...)
	compiled := regexp.MustCompile(`^"procdecomp/internal/(expr|spmd|machine|dist|core|xform)"$`)
	lowering := regexp.MustCompile(`\b(Lower|Lowered|lstmt|stepper|pushScope)\b|map\[string\]\*binding`)
	inspect(files, under("internal/exec/seq.go"), func(f file, n ast.Node) {
		switch n := n.(type) {
		case *ast.File:
			// Names, literals and comments after code; a comment line (the
			// package comment) may name what the reference is independent of.
			code := map[int]bool{}
			for k, l := range f.lines {
				_, comment := l.node.(*ast.Comment)
				line := f.fset.Position(l.node.Pos()).Line
				if code[line] = code[line] || !comment; !code[line] {
					continue
				}
				if m := lowering.FindString(f.text(k)); m != "" {
					bad = append(bad, f.at(l.node, "the reference names %s", m))
				}
			}
		case *ast.ImportSpec:
			if compiled.MatchString(n.Path.Value) {
				bad = append(bad, f.at(n, "the reference imports %s", n.Path.Value))
			}
		case *ast.MapType:
			if isIdent(n.Key, "string") && isPtrTo(n.Value, "binding") {
				bad = append(bad, f.at(n, "a by-name scope, map[string]*binding"))
			}
		}
	})
	return bad
}

func propertyCorpus(files []file) []string {
	var bad []string
	outside := func(f file) bool { return !in("internal/gen/")(f) }
	inspect(files, outside, func(f file, n ast.Node) {
		if isCall(n, "gen", "Program") {
			bad = append(bad, f.at(n, "draws a program outside the corpus"))
		}
	})
	return append(bad, mentions(files, outside, `gen\.Program\(`)...)
}

func witnessHold(files []file) []string {
	var bad []string
	outside := func(f file) bool { return !in("internal/golden/")(f) }
	inspect(files, outside, func(f file, n ast.Node) {
		if sel, ok := n.(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "observed") {
			bad = append(bad, f.at(n, "names .%s: golden.Hold writes what a test observed", sel.Sel.Name))
		}
	})
	return append(bad, mentions(files, outside, `\.observed`)...)
}

// The one allowed call of each shortcut or control-code evaluation, by file
// and text.
var memoSites = map[string]string{
	"s.code(f).Eval(&st.f)":          "internal/exec/memo.go",
	"s.y.EvalAtoms(&st.f, out)":      "internal/exec/memo.go",
	"v.x.Eval(&st.f)":                "internal/exec/step.go",
	"d.Proc.LoopSteps(n, d.ops-ops)": "internal/exec/run.go",
	"sink.LoopSteps(steps)":          "internal/exec/keyed.go",
}

func memoPath(files []file) []string {
	var bad []string
	var evalAtoms, tapes []string
	exec := under("internal/exec/")
	inspect(files, under("internal/", "cmd/", "examples/"), func(f file, n ast.Node) {
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := c.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		switch {
		case sel.Sel.Name == "LoopSteps":
			text := render(f, c)
			if memoSites[text] != f.path {
				bad = append(bad, f.at(n, "%s: a loop charged in bulk outside run.go's tape and keyed.go's charge", text))
			}
		case !exec(f):
		case sel.Sel.Name == "tape":
			tapes = append(tapes, f.path)
		case sel.Sel.Name == "Eval" || sel.Sel.Name == "EvalAtoms":
			if sel.Sel.Name == "EvalAtoms" {
				evalAtoms = append(evalAtoms, f.path)
			}
			code := isCall(sel.X, "", "code")
			if x, ok := sel.X.(*ast.SelectorExpr); ok && slices.Contains([]string{"lo", "hi", "x", "y"}, x.Sel.Name) {
				code = true
			}
			if text := render(f, c); code && memoSites[text] != f.path {
				bad = append(bad, f.at(n, "%s: a control code evaluated outside ctl and keys", text))
			}
		case sel.Sel.Name == "Getenv" || sel.Sel.Name == "LookupEnv":
			if isIdent(sel.X, "os") {
				bad = append(bad, f.at(n, "reads the environment"))
			}
		}
	})
	bad = append(bad, mentions(files, under("internal/", "cmd/", "examples/"), `\.LoopSteps\(`)...)
	if !slices.Equal(evalAtoms, []string{"internal/exec/memo.go"}) {
		bad = append(bad, fmt.Sprintf("EvalAtoms is called in %v, want once, in memo.go's keys", evalAtoms))
	}
	if !slices.Equal(tapes, []string{"internal/exec/step.go"}) {
		bad = append(bad, fmt.Sprintf("a tape is entered in %v, want once, from step.go's loop", tapes))
	}
	bad = append(bad, mentions(files, exec, `\bintOf\b|\.(lo|hi|x|y|code\([^)]*\))\.Eval(Atoms)?\(|EvalAtoms\(|\.tape\(|fInert|inertOps|roleless|loopSteps|os\.(Getenv|LookupEnv)\(`)...)
	for _, f := range files {
		if !exec(f) {
			continue
		}
		for _, d := range f.ast.Decls {
			g, ok := d.(*ast.GenDecl)
			if !ok || g.Tok != token.VAR {
				continue
			}
			if g.Lparen.IsValid() {
				bad = append(bad, f.at(g, "a package-level var block"))
				continue
			}
			for _, s := range g.Specs {
				v := s.(*ast.ValueSpec)
				switch {
				case isIdent(v.Type, "bool"):
				case len(v.Values) > 0 && (isIdent(v.Values[0], "true") || isIdent(v.Values[0], "false")):
				case len(v.Values) > 0 && isUnary(v.Values[0], token.NOT):
				default:
					continue
				}
				bad = append(bad, f.at(g, "a package-level switch, %s", v.Names[0].Name))
			}
		}
	}
	return bad
}

func machineEngine(files []file) []string {
	var bad []string
	machine := under("internal/machine/")
	inspect(files, machine, func(f file, n ast.Node) {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if isSel(n, "sync", "Cond") || isSel(n, "sync", "NewCond") {
				bad = append(bad, f.at(n, "a condition variable, sync.%s", n.Sel.Name))
			}
		case *ast.CallExpr:
			if callee(n) == "Broadcast" && len(n.Args) == 0 {
				bad = append(bad, f.at(n, "a broadcast wake"))
			}
		case *ast.Ident:
			if n.Name == "EngineGoroutine" {
				bad = append(bad, f.at(n, "the goroutine engine's name"))
			}
		case *ast.ChanType:
			if f.path == "internal/machine/event.go" {
				bad = append(bad, f.at(n, "a channel in the event loop"))
			}
		case *ast.GoStmt:
			if f.path == "internal/machine/event.go" {
				bad = append(bad, f.at(n, "a go statement in the event loop"))
			}
		case *ast.MapType:
			if isIdent(n.Key, "key") && isSliceOf(n.Value, "message") || isIdent(n.Key, "int") && isIdent(n.Value, "key") {
				bad = append(bad, f.at(n, "a map-held message queue or wait table"))
			}
		}
	})
	bad = append(bad, mentions(files, machine, `sync\.(NewCond|Cond)|\.Broadcast\(\)|EngineGoroutine|map\[key\]\[\]message|map\[int\]key`)...)
	return append(bad, mentions(files, under("internal/machine/event.go"), `make\(chan|chan bool|go ev\.`)...)
}

func crashSafeWrite(files []file) []string {
	var bad []string
	serve := under("internal/serve/")
	inspect(files, serve, func(f file, n ast.Node) {
		if c, ok := n.(*ast.CallExpr); ok {
			if isSel(c.Fun, "os", "CreateTemp") || isSel(c.Fun, "os", "Rename") || isSel(c.Fun, "os", "Remove") ||
				callee(c) == "Sync" && len(c.Args) == 0 {
				bad = append(bad, f.at(n, "%s: durable writes go through internal/durable", render(f, c)))
			}
		}
	})
	return append(bad, mentions(files, serve, `os\.(CreateTemp|Rename|Remove)\(|\.Sync\(\)`)...)
}

func jobRecord(files []file) []string {
	var bad []string
	inspect(files, in("internal/serve/"), func(f file, n ast.Node) {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return
		}
		if ts.Name.Name == "asyncJob" || ts.Name.Name == "recoveredJob" {
			bad = append(bad, f.at(n, "a second job type, %s", ts.Name.Name))
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok || f.test() || ts.Name.Name == "payload" {
			return
		}
		var mapping, budget bool
		for _, fld := range st.Fields.List {
			for _, name := range fld.Names {
				mapping = mapping || strings.EqualFold(name.Name, "mapping")
				budget = budget || strings.EqualFold(name.Name, "budget")
			}
		}
		if mapping && budget {
			bad = append(bad, f.at(n, "%s declares a mapping and a budget: admission's decision is payload", ts.Name.Name))
		}
	})
	return append(bad, mentions(files, in("internal/serve/"), `type (asyncJob|recoveredJob) `)...)
}

func installOrder(files []file) []string {
	var bad []string
	var runJob ast.Node
	staged := false
	inspect(files, under("internal/serve/"), func(f file, n ast.Node) {
		switch n := n.(type) {
		case *ast.File:
			runJob = nil
		case *ast.FuncDecl:
			if n.Name.Name == "runJob" {
				runJob = n
			}
		case *ast.CallExpr:
			if _, sel := n.Fun.(*ast.SelectorExpr); !sel || callee(n) != "Put" && callee(n) != "Stage" {
				return
			}
			if !within(n, runJob) {
				bad = append(bad, f.at(n, "%s outside runJob", render(f, n)))
			}
			staged = staged || callee(n) == "Stage"
		}
	})
	if !staged {
		bad = append(bad, "runJob stages no result: a synchronous reply waits for its install")
	}
	return bad
}

// The settings that are constants now, by the package whose Config they
// left.
var constants = map[string][]string{
	"internal/serve/":   {"RetryBase", "RetryMax", "LogLines"},
	"internal/adapt/":   {"Alpha", "ShiftAt", "SearchTopK", "SearchWorkers", "QueueDepth"},
	"internal/load/":    {"JobPoll", "PhaseOps", "SteadyOps", "Procs", "BaseN", "ShiftN", "GainFrac"},
	"internal/machine/": {"HeartbeatEvery"},
}

func oneValue(files []file) []string {
	var bad []string
	inspect(files, under("internal/", "cmd/"), func(f file, n ast.Node) {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return
		}
		st, isStruct := ts.Type.(*ast.StructType)
		switch {
		case ts.Name.Name == "PhaseConfig":
			bad = append(bad, f.at(n, "type PhaseConfig: RunPhase takes only the seed"))
		case ts.Name.Name == "Config" && isStruct:
			names := constants[path.Dir(f.path)+"/"]
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					if slices.Contains(names, name.Name) {
						bad = append(bad, f.at(name, "Config.%s: every caller leaves it at one value", name.Name))
					}
				}
			}
		}
	})
	return append(bad, mentions(files, in("internal/", "cmd/"), `type PhaseConfig`)...)
}

func oneDriver(files []file) []string {
	var bad []string
	boots := func(f file) bool {
		return under("internal/serve/", "internal/load/")(f) && f.path != "internal/load/client.go"
	}
	inspect(files, boots, func(f file, n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isSel(n.Fun, "net", "Listen") {
				bad = append(bad, f.at(n, "a listener outside load.Boot"))
			}
			if callee(n) == "VerifyScrape" && strings.HasPrefix(f.path, "internal/load/") {
				bad = append(bad, f.at(n, "a reconciliation outside (*Target).Drain"))
			}
		case *ast.FuncDecl:
			if n.Name.Name == "VerifyScrape" && strings.HasPrefix(f.path, "internal/load/") {
				bad = append(bad, f.at(n, "a second reconciliation, VerifyScrape"))
			}
		case *ast.CompositeLit:
			if isSel(n.Type, "http", "Server") {
				bad = append(bad, f.at(n, "an http.Server outside load.Boot"))
			}
		}
	})
	bad = append(bad, mentions(files, boots, `net\.Listen\(|http\.Server\{`)...)
	return append(bad, mentions(files, func(f file) bool { return under("internal/load/")(f) && !strings.Contains(f.path, "client.go") }, `VerifyScrape\(`)...)
}

// within reports whether n lies inside outer.
func within(n, outer ast.Node) bool {
	return outer != nil && outer.Pos() <= n.Pos() && n.End() <= outer.End()
}

// isPtrTo reports whether e is *name, or *pkg.name for one of pkgs.
func isPtrTo(e ast.Expr, name string, pkgs ...string) bool {
	star, ok := e.(*ast.StarExpr)
	return ok && isType(star.X, name, pkgs...)
}

// isSliceOf reports whether e is []name.
func isSliceOf(e ast.Expr, name string) bool {
	arr, ok := e.(*ast.ArrayType)
	return ok && arr.Len == nil && isIdent(arr.Elt, name)
}

// isType reports whether e is name, or pkg.name for one of pkgs.
func isType(e ast.Expr, name string, pkgs ...string) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name == name
	case *ast.SelectorExpr:
		x, ok := e.X.(*ast.Ident)
		return ok && e.Sel.Name == name && slices.Contains(pkgs, x.Name)
	}
	return false
}

func isIdent(n ast.Node, name string) bool {
	id, ok := n.(*ast.Ident)
	return ok && id.Name == name
}

// isSel reports whether n is x.sel.
func isSel(n ast.Node, x, sel string) bool {
	s, ok := n.(*ast.SelectorExpr)
	return ok && s.Sel.Name == sel && isIdent(s.X, x)
}

func isUnary(e ast.Expr, op token.Token) bool {
	u, ok := e.(*ast.UnaryExpr)
	return ok && u.Op == op
}

// listsStmts reports whether a field of fields holds a statement list: its
// type is or contains []Stmt, or []pkg.Stmt for one of pkgs, as in
// *[]spmd.Stmt, [][]spmd.Stmt or map[int][]spmd.Stmt.
func listsStmts(fields *ast.FieldList, pkgs ...string) bool {
	return fields != nil && slices.ContainsFunc(fields.List, func(f *ast.Field) bool {
		found := false
		ast.Inspect(f.Type, func(n ast.Node) bool {
			arr, ok := n.(*ast.ArrayType)
			found = found || ok && arr.Len == nil && isType(arr.Elt, "Stmt", pkgs...)
			return !found
		})
		return found
	})
}

// callee is the name a call calls: f in f(…) and x.f(…).
func callee(c *ast.CallExpr) string {
	switch fn := c.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// isCall reports whether n is the call x.f(…), or with x empty any
// receiver's f(…).
func isCall(n ast.Node, x, f string) bool {
	c, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := c.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == f && (x == "" || isIdent(sel.X, x))
}

// render is n's source text as f spells it.
func render(f file, n ast.Node) string {
	var b strings.Builder
	if err := printer.Fprint(&b, f.fset, n); err != nil {
		return fmt.Sprintf("%T", n)
	}
	return b.String()
}

// TestRules holds every rule to the tree, and to each of its planted
// violations; each rule is a subtest of its own.
func TestRules(t *testing.T) {
	files := tree(t)
	for _, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			for _, v := range r.check(files) {
				t.Error(v)
			}
			for _, p := range r.plants {
				planted := files[:len(files):len(files)]
				for _, s := range p {
					f, err := parse(token.NewFileSet(), s.path, s.path, s.src)
					if err != nil {
						t.Fatalf("plant in %s: %v", s.path, err)
					}
					planted = append(planted, f)
				}
				if len(r.check(planted)) == 0 {
					t.Errorf("the violation planted in %s passes:\n%s", p[0].path, p[0].src)
				}
			}
		})
	}
}

// parsed is the tree, parsed once per test binary.
var parsed []file

// tree parses every Go file of the module's internal, cmd and examples
// directories, the root's, and the benchmark's under benchmarks, comments
// included.
func tree(t *testing.T) []file {
	t.Helper()
	if parsed != nil {
		return parsed
	}
	root, fset := filepath.Join("..", ".."), token.NewFileSet()
	var files []file
	add := func(path string) error {
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		f, err := parse(fset, path, filepath.ToSlash(rel), nil)
		files = append(files, f)
		return err
	}
	top, err := filepath.Glob(filepath.Join(root, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range top {
		if err := add(path); err != nil {
			t.Fatal(err)
		}
	}
	for _, dir := range []string{"internal", "cmd", "examples", "benchmarks"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && d.Name() == "rules":
				return filepath.SkipDir // the rules' own files hold their plants
			case d.IsDir() || !strings.HasSuffix(path, ".go"):
				return nil
			}
			return add(path)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	parsed = files
	return files
}
