package bench

import (
	"fmt"
	"strings"

	"procdecomp/internal/core"
	"procdecomp/internal/exec"
	"procdecomp/internal/faults"
	"procdecomp/internal/istruct"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
	"procdecomp/internal/sem"
	"procdecomp/internal/trace"
	"procdecomp/internal/xform"
)

// Series is one experiment's results, ready for printing.
type Series struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Format renders the series as an aligned text table.
func (s *Series) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n\n", s.Title)
	widths := make([]int, len(s.Columns))
	for i, c := range s.Columns {
		widths[i] = len(c)
	}
	for _, row := range s.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(s.Columns)
	sep := make([]string, len(s.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range s.Rows {
		writeRow(row)
	}
	for _, n := range s.Notes {
		fmt.Fprintf(&b, "\n%s\n", n)
	}
	return b.String()
}

// DefaultProcs is the processor sweep of Figs. 6 and 7 (the iPSC/2 the
// authors used had up to 32 nodes).
var DefaultProcs = []int{1, 2, 4, 8, 16, 32}

// DefaultBlk is the hand-written program's block size ("the handwritten
// version achieves this by sending the new elements in blocks of size 8").
const DefaultBlk int64 = 8

// Figure6 reproduces "Effect of Compile-time and Run-time Resolution":
// execution time vs. processors for run-time resolution, compile-time
// resolution, Optimized I, Optimized III, and the handwritten program on an
// N×N integer grid.
func Figure6(n int64, procs []int, blk int64) (*Series, error) {
	return timesByProcs("Figure 6: Effect of Compile-time and Run-time Resolution "+
		fmt.Sprintf("(%dx%d grid, blksize %d)", n, n, blk),
		[]Variant{RunTime, CompileTime, OptimizedI, OptimizedIII, Handwritten},
		n, procs, blk)
}

// Figure7 reproduces "Effect of Message-Passing Optimizations": the
// optimized variants against the handwritten program.
func Figure7(n int64, procs []int, blk int64) (*Series, error) {
	return timesByProcs("Figure 7: Effect of Message-Passing Optimizations "+
		fmt.Sprintf("(%dx%d grid, blksize %d)", n, n, blk),
		[]Variant{OptimizedI, OptimizedII, OptimizedIII, Handwritten},
		n, procs, blk)
}

func timesByProcs(title string, variants []Variant, n int64, procs []int, blk int64) (*Series, error) {
	s := &Series{Title: title, Columns: []string{"variant"}}
	for _, p := range procs {
		s.Columns = append(s.Columns, fmt.Sprintf("S=%d", p))
	}
	for _, v := range variants {
		row := []string{v.String()}
		for _, p := range procs {
			pt, err := RunGS(v, p, n, blk)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%d", pt.Makespan))
		}
		s.Rows = append(s.Rows, row)
	}
	s.Notes = append(s.Notes,
		"Times are simulated cycles (makespan over all processors); 1 cycle = 1 scalar operation.",
		"Expected shape: run-time/compile-time/Optimized I are flat (no parallelism);",
		"Optimized II drops with S (pipelining); Optimized III tracks the handwritten curve.")
	return s, nil
}

// MessageTable reproduces footnote 3: total message counts per variant.
func MessageTable(n int64, procs int, blk int64) (*Series, error) {
	s := &Series{
		Title:   fmt.Sprintf("Footnote 3: message counts (%dx%d grid, S=%d, blksize %d)", n, n, procs, blk),
		Columns: []string{"variant", "messages", "values moved"},
	}
	for _, v := range AllVariants {
		pt, err := RunGS(v, procs, n, blk)
		if err != nil {
			return nil, err
		}
		s.Rows = append(s.Rows, []string{v.String(),
			fmt.Sprintf("%d", pt.Messages), fmt.Sprintf("%d", pt.Values)})
	}
	s.Notes = append(s.Notes,
		"Paper (N=128, blksize 8): 31,752 messages for run-time resolution vs 2,142 handwritten.")
	return s, nil
}

// BlockSizeSweep explores §4's open question: "the best block size depends
// on the size of the matrix". For each grid size it reports the Optimized
// III makespan across block sizes and marks the best.
func BlockSizeSweep(ns []int64, blks []int64, procs int) (*Series, error) {
	s := &Series{
		Title:   fmt.Sprintf("Block-size sweep (Optimized III, S=%d)", procs),
		Columns: []string{"N \\ blksize"},
	}
	for _, b := range blks {
		s.Columns = append(s.Columns, fmt.Sprintf("%d", b))
	}
	s.Columns = append(s.Columns, "best")
	for _, n := range ns {
		row := []string{fmt.Sprintf("%d", n)}
		best, bestIdx := machine.Cost(0), -1
		for i, b := range blks {
			pt, err := RunGS(OptimizedIII, procs, n, b)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%d", pt.Makespan))
			if bestIdx < 0 || pt.Makespan < best {
				best, bestIdx = pt.Makespan, i
			}
		}
		row = append(row, fmt.Sprintf("%d", blks[bestIdx]))
		s.Rows = append(s.Rows, row)
	}
	s.Notes = append(s.Notes,
		"\"The block size is a compromise between decreasing the number of messages and exploiting parallelism\" (§4).")
	return s, nil
}

// InterchangeAblation reproduces the §4 loop-interchange discussion: the
// reversed-loop program compiled as-is shows no column pipelining, while
// interchanging the loops before specialization restores it.
func InterchangeAblation(n int64, procs int, blk int64) (*Series, error) {
	s := &Series{
		Title:   fmt.Sprintf("Loop interchange ablation (%dx%d grid, S=%d)", n, n, procs),
		Columns: []string{"program", "makespan", "messages"},
	}
	// Both reversed-loop programs must compute what Fig. 1 computes in normal
	// order, so the reference is the Fig. 1 source's.
	gs, err := checkGS(GSSource, procs, n)
	if err != nil {
		return nil, err
	}
	ref, err := exec.Reference(gs, "gs_iteration")
	if err != nil {
		return nil, err
	}
	run := func(label string, interchange bool) error {
		info, err := checkGS(GSReversedSource, procs, n)
		if err != nil {
			return err
		}
		generic, err := core.New(info).CompileRTR("gs_iteration")
		if err != nil {
			return err
		}
		if interchange {
			if !xform.Interchange(generic, "i") {
				return fmt.Errorf("interchange did not apply")
			}
		}
		progs := core.SpecializeAll(generic, int64(procs), true)
		passes, _ := xform.StandardPipeline("opt3", blk)
		if _, err := xform.Apply(progs, passes); err != nil {
			return err
		}
		out, err := exec.RunSPMD(progs, machine.DefaultConfig(procs),
			map[string]*istruct.Matrix{"Old": Input(n)})
		if err != nil {
			return err
		}
		if err := ref.Check(progs[0].Outputs, out); err != nil {
			return err
		}
		s.Rows = append(s.Rows, []string{label,
			fmt.Sprintf("%d", out.Stats.Makespan), fmt.Sprintf("%d", out.Stats.Messages)})
		return nil
	}
	if err := run("reversed loops, as written", false); err != nil {
		return nil, err
	}
	if err := run("reversed loops + interchange", true); err != nil {
		return nil, err
	}
	s.Notes = append(s.Notes,
		"§4: with the loops reversed the generated code shows no parallelism; interchange aligns",
		"the iteration order with the column decomposition and restores the pipeline.")
	return s, nil
}

// SharedMemoryAblation tests the paper's §1 claim that "even in
// shared-memory machines, spatial locality of reference is extremely
// important for good performance": the same programs run on a machine
// calibrated to shared-memory remote-access costs (tens of cycles instead of
// hundreds per message). The optimization gap narrows but does not vanish.
func SharedMemoryAblation(n int64, procs int, blk int64) (*Series, error) {
	s := &Series{
		Title:   fmt.Sprintf("Shared-memory ablation (%dx%d grid, S=%d, blksize %d)", n, n, procs, blk),
		Columns: []string{"variant", "message-passing", "shared-memory", "ratio mp/shm"},
	}
	for _, v := range []Variant{RunTime, CompileTime, OptimizedII, OptimizedIII, Handwritten} {
		mp, err := RunGSWith(machine.DefaultConfig(procs), v, n, blk)
		if err != nil {
			return nil, err
		}
		shm, err := RunGSWith(machine.SharedMemoryConfig(procs), v, n, blk)
		if err != nil {
			return nil, err
		}
		s.Rows = append(s.Rows, []string{v.String(),
			fmt.Sprintf("%d", mp.Makespan), fmt.Sprintf("%d", shm.Makespan),
			fmt.Sprintf("%.1fx", float64(mp.Makespan)/float64(shm.Makespan))})
	}
	s.Notes = append(s.Notes,
		"§1: message-passing machines pay hundreds of cycles per remote access, shared-memory",
		"machines tens; the decomposition and optimizations matter in both regimes.")
	return s, nil
}

// UtilizationTable explains Figs. 6/7 causally: the flat curves are
// processors sitting idle waiting for serialized messages. For each variant
// it reports the mean processor utilization (fraction of virtual time spent
// computing), the aggregate time partition, and the communication pattern —
// all computed from the run's event trace, whose per-process sums the
// machine verifies against its own Breakdown before any number is reported.
func UtilizationTable(n int64, procs int, blk int64) (*Series, error) {
	s := &Series{
		Title:   fmt.Sprintf("Processor utilization (%dx%d grid, S=%d, blksize %d)", n, n, procs, blk),
		Columns: []string{"variant", "utilization", "compute", "comm overhead", "idle", "messages", "busiest link"},
	}
	for _, v := range AllVariants {
		pt, tr, err := TraceGS(v, procs, n, blk, nil)
		if err != nil {
			return nil, err
		}
		tot := tr.Totals()
		if msgs := tr.Messages(); msgs != pt.Messages {
			return nil, fmt.Errorf("bench: trace counted %d messages, machine counted %d", msgs, pt.Messages)
		}
		link := "-"
		if src, dst, c, ok := tr.BusiestLink(); ok {
			link = fmt.Sprintf("%d->%d (%d)", src, dst, c)
		}
		s.Rows = append(s.Rows, []string{v.String(),
			fmt.Sprintf("%4.1f%%", 100*pt.MeanUtilization()),
			fmt.Sprintf("%d", tot.Compute), fmt.Sprintf("%d", tot.Comm),
			fmt.Sprintf("%d", tot.Idle+tot.Blocked),
			fmt.Sprintf("%d", pt.Messages), link})
	}
	s.Notes = append(s.Notes,
		"Idle time is cycles spent blocked in receives before the message arrived:",
		"the unoptimized variants serialize on it; pipelining and blocking reclaim it.",
		"Partitions are summed from the event trace and reconciled exactly with the",
		"machine's Breakdown; 'busiest link' is the (src->dst) pair from the message matrix.")
	return s, nil
}

// TraceGS runs one Gauss-Seidel variant with event tracing enabled and
// returns the machine statistics plus the event log. placement, when
// non-nil, multiplexes the virtual processes onto physical nodes
// (machine.Config.Placement). Every traced run self-checks: the harness
// fails if the per-process event sums do not reconcile exactly with the
// machine's compute/comm/idle partition.
func TraceGS(v Variant, procs int, n, blk int64, placement []int) (*machine.Stats, *trace.Log, error) {
	cfg := machine.DefaultConfig(procs)
	cfg.Placement = placement
	return TraceGSWith(cfg, v, n, blk)
}

// TraceGSWith is TraceGS on an explicit machine calibration — the hook for
// tracing fault-injected or re-calibrated runs (cfg.Tracer is installed here;
// any existing value is replaced). Like every run of the harness, the traced
// run's result is validated before anything about it is reported.
func TraceGSWith(cfg machine.Config, v Variant, n, blk int64) (*machine.Stats, *trace.Log, error) {
	tr := trace.New()
	cfg.Tracer = tr
	stats, err := runGS(cfg, v, n, blk)
	if err != nil {
		return nil, nil, err
	}
	return &stats, tr, nil
}

// FaultSweep quantifies the cost of unreliability: for each drop rate it runs
// Optimized III and the handwritten wavefront under a seeded chaos schedule
// (drops at the rate, duplicates and ack loss at half of it, jitter at the
// full rate) and reports the makespan, the slowdown against the fault-free
// run, and the transport's retry and duplicate-suppression counters. Every
// run's result matrix is validated against the sequential reference before
// the row is emitted: the table only ever shows runs that computed the right
// answer, which is the point — faults cost time, never correctness.
func FaultSweep(n, blk int64, procs int, seed uint64, rates []float64) (*Series, error) {
	s := &Series{
		Title: fmt.Sprintf("Fault sweep (%dx%d grid, S=%d, blksize %d, seed %d)",
			n, n, procs, blk, seed),
		Columns: []string{"variant", "drop rate", "makespan", "slowdown", "retries", "duplicates"},
	}
	for _, v := range []Variant{OptimizedIII, Handwritten} {
		var base machine.Cost
		for _, rate := range rates {
			cfg := machine.DefaultConfig(procs)
			if rate > 0 {
				cfg.Faults = faults.Chaos(seed, rate)
			}
			st, err := runGS(cfg, v, n, blk)
			if err != nil {
				return nil, err
			}
			if rate == 0 {
				base = st.Makespan
			}
			slow := "1.00x"
			if base != 0 {
				slow = fmt.Sprintf("%.2fx", float64(st.Makespan)/float64(base))
			}
			s.Rows = append(s.Rows, []string{v.String(),
				fmt.Sprintf("%.0f%%", 100*rate),
				fmt.Sprintf("%d", st.Makespan), slow,
				fmt.Sprintf("%d", st.Retries), fmt.Sprintf("%d", st.Duplicates)})
		}
	}
	s.Notes = append(s.Notes,
		"Every row's result matrix equals the sequential reference: the reliable",
		"transport turns drops, duplicates, and reordering into virtual time only.",
		"Slowdown is relative to the same variant's fault-free makespan; retries and",
		"duplicates count retransmitted attempts and receiver-suppressed copies.")
	return s, nil
}

// triSource is a triangular-region relaxation: column j updates rows 2..j,
// so work grows with the column index. The decomposition choice is a real
// trade-off: wrapping the columns (§2.3's dealer metaphor) balances the
// compute, while blocks keep the stencil's neighbours local — Karp's §1
// admonition that "data organization is the key to parallel algorithms",
// measured from both sides.
const triSource = `
const N = 96;
const w = 0.25;

dist D = %s(NPROCS);

proc tri(Old: matrix[N, N] on D): matrix[N, N] on D {
  let New = matrix(N, N) on D;
  for j = 2 to N - 1 {
    for i = 2 to j {
      New[i, j] = w * (Old[i - 1, j] + Old[i + 1, j] + Old[i, j - 1] + Old[i, j + 1]);
    }
  }
  return New;
}
`

// LoadBalanceTable measures the triangular workload under block and cyclic
// column decompositions: makespan, message traffic, and the busiest/idlest
// processor's compute time. Wrapping balances the compute (lower imbalance)
// but pays for it dearly in communication — every column's neighbours are
// remote — while blocks communicate only at the block edges. Which
// decomposition wins is a property of the data organization, not the code:
// exactly the §1 claim.
func LoadBalanceTable(procs int) (*Series, error) {
	s := &Series{
		Title:   fmt.Sprintf("Decomposition choice: locality vs balance (triangular workload, S=%d)", procs),
		Columns: []string{"decomposition", "makespan", "messages", "max proc compute", "min proc compute", "imbalance"},
	}
	for _, d := range []string{"block_cols", "cyclic_cols"} {
		src := fmt.Sprintf(triSource, d)
		prog, err := lang.Parse(src)
		if err != nil {
			return nil, err
		}
		info, errs := sem.Check(prog, sem.Config{Procs: int64(procs)})
		if len(errs) > 0 {
			return nil, errs[0]
		}
		n := int64(info.Consts["N"].Const)
		progs, err := xform.Compile(info, "tri", "opt1", 0)
		if err != nil {
			return nil, err
		}
		out, err := exec.RunSPMD(progs, machine.DefaultConfig(procs),
			map[string]*istruct.Matrix{"Old": Input(n)})
		if err != nil {
			return nil, err
		}
		ref, err := exec.Reference(info, "tri")
		if err != nil {
			return nil, err
		}
		if err := ref.Check(progs[0].Outputs, out); err != nil {
			return nil, fmt.Errorf("load balance: wrong result under %s: %w", d, err)
		}
		maxC, minC := machine.Cost(0), machine.Cost(0)
		for i, b := range out.Stats.Breakdown {
			if i == 0 || b.Compute > maxC {
				maxC = b.Compute
			}
			if i == 0 || b.Compute < minC {
				minC = b.Compute
			}
		}
		imb := "n/a"
		if minC > 0 {
			imb = fmt.Sprintf("%.1fx", float64(maxC)/float64(minC))
		}
		s.Rows = append(s.Rows, []string{d,
			fmt.Sprintf("%d", out.Stats.Makespan),
			fmt.Sprintf("%d", out.Stats.Messages),
			fmt.Sprintf("%d", maxC), fmt.Sprintf("%d", minC), imb})
	}
	s.Notes = append(s.Notes,
		"§1 (Karp): \"data organization is the key to parallel algorithms\" — wrapping",
		"balances the triangle's compute, blocks keep the stencil local; on this",
		"machine the communication term dominates, so blocks win despite the imbalance.")
	return s, nil
}

// MultiplexTable tests §5.4's hypothesis: "A good process decomposition
// places several processes on one processor to ensure that when one process
// needs to wait for a remote reference the processor running it will have
// work to do." The Gauss-Seidel program is decomposed into S = factor×M
// virtual processes multiplexed onto M physical nodes (§2.2 footnote 2) and
// compared with the direct one-process-per-node decomposition. Placements:
// cyclic (process i on node i mod M — wavefront neighbours on different
// nodes) and blocked (consecutive processes share a node).
func MultiplexTable(nodes int, n, blk int64) (*Series, error) {
	s := &Series{
		Title: fmt.Sprintf("§5.4 multiplexing: virtual processes on %d nodes (%dx%d grid, Optimized III, blksize %d)",
			nodes, n, n, blk),
		Columns: []string{"decomposition", "placement", "makespan", "messages", "mean utilization"},
	}
	add := func(label, placementName string, vprocs int, placement []int) error {
		cfg := machine.DefaultConfig(vprocs)
		cfg.Placement = placement
		st, err := runGS(cfg, OptimizedIII, n, blk)
		if err != nil {
			return err
		}
		s.Rows = append(s.Rows, []string{label, placementName,
			fmt.Sprintf("%d", st.Makespan),
			fmt.Sprintf("%d", st.Messages),
			fmt.Sprintf("%4.1f%%", 100*st.MeanUtilization())})
		return nil
	}
	if err := add(fmt.Sprintf("%d processes (direct)", nodes), "one per node", nodes, nil); err != nil {
		return nil, err
	}
	for _, factor := range []int{2, 4} {
		vprocs := nodes * factor
		cyc := make([]int, vprocs)
		blkP := make([]int, vprocs)
		for i := range cyc {
			cyc[i] = i % nodes
			blkP[i] = i / factor
		}
		label := fmt.Sprintf("%d processes on %d nodes", vprocs, nodes)
		if err := add(label, "cyclic", vprocs, cyc); err != nil {
			return nil, err
		}
		if err := add(label, "blocked", vprocs, blkP); err != nil {
			return nil, err
		}
	}
	s.Notes = append(s.Notes,
		"§5.4: multiplexing hides message latency when a waiting process's node has",
		"other work; whether it wins depends on the extra messages finer decomposition costs.")
	return s, nil
}
