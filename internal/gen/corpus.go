package gen

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"procdecomp/internal/exec"
	"procdecomp/internal/istruct"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
	"procdecomp/internal/sem"
	"procdecomp/internal/spmd"
	"procdecomp/internal/xform"
)

// A Case is one program on one machine: what every pipeline property is
// checked on.
type Case struct {
	Name  string // "gen/k" for the corpus's k-th generated program
	Src   string
	Entry string
	Procs int
	// Nodes, when positive, multiplexes the processes onto that many
	// nodes, process p on node p mod Nodes.
	Nodes   int
	Blk     int64            // opt3's block size
	Defines map[string]int64 // overrides of the source's constants
	// Retarget, when set, rewrites the parsed program before it is checked
	// (a search candidate's mapping).
	Retarget func(*lang.Program) error
	// Points are the pipeline points compiled: nil is every
	// xform.StandardModes point, opt3 at Blk (a Compiled case's are filled).
	Points []xform.Point
	// StopsWalk marks a program that branches on an element value: a walk,
	// which holds no values, stops there, so the case is outside the
	// walk-based properties' domain.
	StopsWalk bool
}

// Config is the machine the case runs on.
func (c Case) Config() machine.Config {
	cfg := machine.DefaultConfig(c.Procs)
	if c.Nodes > 0 {
		cfg.Placement = make([]int, c.Procs)
		for p := range cfg.Placement {
			cfg.Placement[p] = p % c.Nodes
		}
	}
	return cfg
}

// Label names a point as failures do: its mode, and opt3's block size.
func Label(pt xform.Point) string {
	if pt.Mode == "opt3" {
		return fmt.Sprintf("opt3/blk=%d", pt.Blk)
	}
	return pt.Mode
}

// A Compiled case is a case through the front half every property shares:
// parsed, checked, compiled at all its points with one xform.CompileAll, and
// each distinct stage lowered once.
type Compiled struct {
	Case
	Info   *sem.Info
	Inputs map[string]*istruct.Matrix // exec.PatternInputs of the entry
	Stages []xform.Stage
	// Images[i] is point i's lowered image, nil if its stage failed. Twins
	// (points whose passes applied nowhere) share one: First[i] is the
	// first point with point i's image, so a property that looks at images
	// looks at those with First[i] == i.
	Images []*exec.Image
	First  []int
}

// Compile runs c through the front half. A stage that fails to compile is
// left in Stages for the caller to judge; any other failure is an error.
func Compile(c Case) (*Compiled, error) {
	prog, err := lang.Parse(c.Src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	if c.Retarget != nil {
		if err := c.Retarget(prog); err != nil {
			return nil, err
		}
	}
	info, errs := sem.Check(prog, sem.Config{Procs: int64(c.Procs), Defines: c.Defines})
	if len(errs) > 0 {
		return nil, fmt.Errorf("check: %w", errors.Join(errs...))
	}
	ins, err := exec.PatternInputs(info, c.Entry)
	if err != nil {
		return nil, err
	}
	if c.Points == nil {
		for _, mode := range xform.StandardModes() {
			c.Points = append(c.Points, xform.Point{Mode: mode, Blk: c.Blk})
		}
	}
	cc := &Compiled{Case: c, Info: info, Inputs: ins, Stages: xform.CompileAll(info, c.Entry, c.Points),
		Images: make([]*exec.Image, len(c.Points)), First: make([]int, len(c.Points))}
	first := map[*spmd.Program]int{}
	for i, st := range cc.Stages {
		cc.First[i] = i
		if st.Err != nil {
			continue
		}
		if k, twin := first[st.Progs[0]]; twin {
			cc.First[i], cc.Images[i] = k, cc.Images[k]
			continue
		}
		first[st.Progs[0]] = i
		if cc.Images[i], err = exec.LowerAll(st.Progs, c.Procs); err != nil {
			return nil, fmt.Errorf("%s: %w", Label(c.Points[i]), err)
		}
	}
	return cc, nil
}

// Corpus is every case the pipeline properties hold on: five streams of
// generated programs, each drawn from its own seed exactly as the tests that
// once owned it drew it (130 programs and machines), and hand-written rows of
// shapes the generator does not draw. Generated programs are numbered in
// order; the first stream's six keep the numbers 0–5 that name the walk ≡
// run subtests.
func Corpus() []Case {
	var cases []Case
	var rng *rand.Rand
	programs := 0
	next := func() (name, src string) {
		src, _ = Program(rng)
		programs++
		return fmt.Sprintf("gen/%d", programs-1), src
	}
	add := func(name, src string, procs, nodes int, blk int64) {
		cases = append(cases, Case{Name: name, Src: src, Entry: "step", Procs: procs, Nodes: nodes, Blk: blk})
	}
	// Six programs, each at S = 1, 4 and 8, blk 4.
	rng = rand.New(rand.NewSource(45))
	for range 6 {
		name, src := next()
		for _, procs := range []int{1, 4, 8} {
			add(name, src, procs, 0, 4)
		}
	}
	// S from 1…5 and blk from 1…6; a third draw, once the input's seed, is
	// still made so that each draws the program it always did.
	rng = rand.New(rand.NewSource(20260706))
	for range 40 {
		name, src := next()
		procs, blk := 1+rng.Intn(5), int64(1+rng.Intn(6))
		rng.Int63()
		add(name, src, procs, 0, blk)
	}
	// S from 2…4 and blk from 1…6.
	rng = rand.New(rand.NewSource(7))
	for range 40 {
		name, src := next()
		procs, blk := 2+rng.Intn(3), int64(1+rng.Intn(6))
		add(name, src, procs, 0, blk)
	}
	// Six processes multiplexed on two nodes, blk 4.
	rng = rand.New(rand.NewSource(31415))
	for range 8 {
		name, src := next()
		rng.Int63()
		add(name, src, 6, 2, 4)
	}
	// S = 1 + k mod 5 for the stream's k-th program, blk from 1…6.
	rng = rand.New(rand.NewSource(44))
	for k := range 24 {
		name, src := next()
		add(name, src, 1+k%5, 0, int64(1+rng.Intn(6)))
	}
	for _, r := range rows {
		add("row/"+r.name, r.src, 4, 0, 4)
		cases[len(cases)-1].StopsWalk = r.stops
	}
	return cases
}

// Unexercised names the pipeline modes at which no case of cases compiles
// to an image of its own: there a pass applied nowhere, so a property that
// looks at images checks it on none of them.
func Unexercised(cases []*Compiled) []string {
	own := map[string]bool{}
	for _, c := range cases {
		for i, pt := range c.Points {
			own[pt.Mode] = own[pt.Mode] || c.First[i] == i
		}
	}
	var modes []string
	for _, mode := range xform.StandardModes() {
		if !own[mode] {
			modes = append(modes, mode)
		}
	}
	return modes
}

// CompiledCorpus is the corpus through the front half, compiled once per
// test binary.
var CompiledCorpus = sync.OnceValues(func() ([]*Compiled, error) {
	var out []*Compiled
	for _, c := range Corpus() {
		cc, err := Compile(c)
		if err != nil {
			return nil, fmt.Errorf("%s S=%d: %w\n%s", c.Name, c.Procs, err, c.Src)
		}
		out = append(out, cc)
	}
	return out, nil
})
