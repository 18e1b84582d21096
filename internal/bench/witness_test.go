package bench

// The engine witness.
//
// internal/machine used to carry two simulation cores: the event loop, and
// the goroutines+mutex+condvar machine it replaced. A differential harness
// in this file ran every case below on both and demanded equal Stats and
// byte-identical trace dumps (wire events and MsgSeq included); it was green
// from the commit that introduced the event loop to the last commit that
// still had two cores. At that commit the goroutine core's observable
// behaviour on every case was recorded in
// testdata/golden/engine_witness.json (the event loop produced the identical
// file), and the goroutine core was deleted. The file is now the reference:
// the tests here hold the one engine to it, so a change to the machine that
// moves a clock, a span, a wire event or a counter on any of these cases
// fails the same way a divergence between the two cores used to.
//
// A record carries the headline counters in the clear, so a mismatch reads
// as "makespan 27411, witness says 27410", plus SHA-256 digests of the
// JSON-serialized machine.Stats (per-process clocks and Breakdowns) and
// analysis.Dump (every span of every process and the canonically sorted
// wire stream; 20–45 KB each, hence digests).
//
// Regenerating is deliberate: a failing TestEngineMatchesWitness writes what
// it observed to a file it names; only a change that means to move
// simulated numbers copies that file over the golden, and its description
// explains the diff.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"procdecomp/internal/analysis"
	"procdecomp/internal/faults"
	"procdecomp/internal/golden"
	"procdecomp/internal/machine"
	"procdecomp/internal/trace"
)

const witnessPath = "../../testdata/golden/engine_witness.json"

// witnessRecord is one case's observable behaviour as the file stores it.
type witnessRecord struct {
	Name        string `json:"name"`
	Makespan    uint64 `json:"makespan"`
	Messages    int64  `json:"messages"`
	Values      int64  `json:"values"`
	Retries     int64  `json:"retries"`
	Duplicates  int64  `json:"duplicates"`
	Lost        int64  `json:"lost"`
	StatsSHA256 string `json:"stats_sha256"`
	DumpSHA256  string `json:"dump_sha256"`
}

// witnessCase is one traced run: a calibration and what to run on it. The
// calibration is a separate field so the harness self-tests can perturb it.
type witnessCase struct {
	name string
	cfg  machine.Config
	run  func(cfg machine.Config) (*machine.Stats, *analysis.Dump, error)
}

// observe runs c on cfg (normally c.cfg) and reduces the run to its record.
func observe(c witnessCase, cfg machine.Config) (witnessRecord, error) {
	st, d, err := c.run(cfg)
	if err != nil {
		return witnessRecord{}, fmt.Errorf("%s: %w", c.name, err)
	}
	digest := func(v interface{}) string {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // Stats and Dump are plain data
		}
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	return witnessRecord{
		Name: c.name, Makespan: st.Makespan, Messages: st.Messages, Values: st.Values,
		Retries: st.Retries, Duplicates: st.Duplicates, Lost: st.Lost,
		StatsSHA256: digest(st), DumpSHA256: digest(d),
	}, nil
}

// diffRecord reports the first way got departs from the witness, most
// readable field first: the makespan, then the other counters, then the
// digests that cover everything else.
func diffRecord(want, got witnessRecord) error {
	if want.Makespan != got.Makespan {
		return fmt.Errorf("%s: makespan diverges: witness %d, observed %d", want.Name, want.Makespan, got.Makespan)
	}
	w, g := want, got
	w.StatsSHA256, w.DumpSHA256, g.StatsSHA256, g.DumpSHA256 = "", "", "", ""
	if w != g {
		return fmt.Errorf("%s: counters diverge:\n  witness  %+v\n  observed %+v", want.Name, w, g)
	}
	if want.StatsSHA256 != got.StatsSHA256 {
		return fmt.Errorf("%s: Stats diverge (a per-process clock or Breakdown moved; the totals above did not)", want.Name)
	}
	if want.DumpSHA256 != got.DumpSHA256 {
		return fmt.Errorf("%s: trace dumps diverge (a span, wire event or MsgSeq moved; Stats did not)", want.Name)
	}
	return nil
}

func marshalWitness(recs []witnessRecord) []byte {
	b, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// readWitness returns the file's records by case name.
func readWitness(t *testing.T) map[string]witnessRecord {
	t.Helper()
	b, err := os.ReadFile(witnessPath)
	if err != nil {
		t.Fatal(err)
	}
	var recs []witnessRecord
	if err := json.Unmarshal(b, &recs); err != nil {
		t.Fatalf("%s: %v", witnessPath, err)
	}
	byName := make(map[string]witnessRecord, len(recs))
	for _, r := range recs {
		byName[r.Name] = r
	}
	return byName
}

func gsCase(name string, cfg machine.Config, v Variant, n int64) witnessCase {
	return witnessCase{name, cfg, func(cfg machine.Config) (*machine.Stats, *analysis.Dump, error) {
		return DumpGS(cfg, v, n, 4)
	}}
}

// bodyCase captures a raw machine body, for the paths the Gauss-Seidel
// programs do not reach (a single ping, small rings, one per node or placed).
func bodyCase(name string, cfg machine.Config, body func(p *machine.Proc)) witnessCase {
	return witnessCase{name, cfg, func(cfg machine.Config) (*machine.Stats, *analysis.Dump, error) {
		tr := trace.New()
		cfg.Tracer = tr
		m := machine.New(cfg)
		if err := m.Run(body); err != nil {
			return nil, nil, err
		}
		st, err := m.Stats()
		if err != nil {
			return nil, nil, err
		}
		return &st, analysis.NewDump(cfg, tr), nil
	}}
}

// withChaos is the seeded fault schedule every "chaos=true" case runs under.
func withChaos(cfg machine.Config, chaotic bool) machine.Config {
	if chaotic {
		cfg.Faults = faults.Chaos(42, 0.10)
	}
	return cfg
}

// fig6Cases is every Fig. 6 code-generation variant at S ∈ {1, 4, 8, 32},
// with and without chaos, one process per node.
func fig6Cases() []witnessCase {
	var cases []witnessCase
	for _, sz := range []struct {
		procs int
		n     int64
	}{{1, 16}, {4, 24}, {8, 24}, {32, 48}} {
		for _, v := range AllVariants {
			for _, chaotic := range []bool{false, true} {
				cases = append(cases, gsCase(fmt.Sprintf("S%d/%v/chaos=%v", sz.procs, v, chaotic),
					withChaos(machine.DefaultConfig(sz.procs), chaotic), v, sz.n))
			}
		}
	}
	return cases
}

// pingCase is the smallest run there is — one message — which is what lets
// a self-test move the makespan by exactly one cycle.
func pingCase() witnessCase {
	return bodyCase("ping", machine.DefaultConfig(2), func(p *machine.Proc) {
		if p.ID() == 0 {
			p.Send(1, 1, 1.0)
		} else {
			p.Recv(0, 1)
		}
	})
}

// machineCases exercise what the one-process-per-node programs do not:
// conservative admission and node-CPU contention under Placement, each with
// and without chaos. The ring's records keep the cap=0 in their names from
// when bounded mailboxes were a third axis.
func machineCases() []witnessCase {
	cases := []witnessCase{pingCase()}

	ring := func(p *machine.Proc) {
		right := (p.ID() + 1) % 6
		left := (p.ID() + 5) % 6
		for k := 0; k < 5; k++ {
			p.Compute(machine.Cost(13*p.ID() + 7))
			if p.ID()%2 == 0 {
				p.Send(right, 1, float64(k))
				p.Recv(left, 2)
			} else {
				p.Recv(left, 1)
				p.Send(right, 2, float64(k))
			}
		}
	}
	for _, pl := range []struct {
		name  string
		nodes []int
	}{{"one per node", nil}, {"6 on 2 nodes", []int{0, 1, 0, 1, 0, 1}}} {
		for _, chaotic := range []bool{false, true} {
			cfg := withChaos(machine.DefaultConfig(6), chaotic)
			cfg.Placement = pl.nodes
			cases = append(cases, bodyCase(fmt.Sprintf("ring/%s/cap=0/chaos=%v", pl.name, chaotic), cfg, ring))
		}
	}

	// §5.4's shape: 16 processes of each variant placed cyclically on 4 nodes.
	placement := make([]int, 16)
	for i := range placement {
		placement[i] = i % 4
	}
	for _, v := range AllVariants {
		for _, chaotic := range []bool{false, true} {
			cfg := withChaos(machine.DefaultConfig(16), chaotic)
			cfg.Placement = placement
			cases = append(cases, gsCase(fmt.Sprintf("S16 on 4 nodes/%v/chaos=%v", v, chaotic), cfg, v, 32))
		}
	}
	return cases
}

func witnessCases() []witnessCase { return append(fig6Cases(), machineCases()...) }

// TestEngineMatchesWitness holds the engine to the whole file: every case,
// no record missing or left over, byte for byte.
func TestEngineMatchesWitness(t *testing.T) {
	var recs []witnessRecord
	for _, c := range witnessCases() {
		rec, err := observe(c, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	golden.Hold(t, witnessPath, marshalWitness(recs),
		"Only a change that means to move simulated numbers copies it over the golden, and says why.")
}

// checkCases compares each case with its record as a parallel subtest, so
// one case can be run, and read, by name.
func checkCases(t *testing.T, cases []witnessCase) {
	want := readWitness(t)
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			w, ok := want[c.name]
			if !ok {
				t.Fatalf("no record in %s", witnessPath)
			}
			got, err := observe(c, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := diffRecord(w, got); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestEnginesBitIdentical is the theorem the differential harness proved,
// under the name it has always had: on every Fig. 6 variant the event loop
// is bit-identical to the goroutine core — whose side of the comparison is
// now its record in the witness.
func TestEnginesBitIdentical(t *testing.T) { checkCases(t, fig6Cases()) }

// TestEnginesAgreeOnMuxAndCaps is the same for the scheduling paths the SPMD
// programs do not reach, under the name it had while bounded mailboxes were
// one of them.
func TestEnginesAgreeOnMuxAndCaps(t *testing.T) { checkCases(t, machineCases()) }

// Failed runs are held to their error class, not to the witness: which of
// several simultaneous failures is reported first was never part of the
// contract between the cores, only the classification was.
func TestEnginesAgreeOnWatchdogClass(t *testing.T) {
	cfg := machine.DefaultConfig(2)
	cfg.Faults = &faults.Schedule{Drop: 1} // every attempt dropped: lost forever
	err := machine.New(cfg).Run(func(p *machine.Proc) {
		if p.ID() == 0 {
			p.Compute(1000)
			p.Send(1, 5, 1.0)
		} else {
			p.Recv(0, 5)
		}
	})
	if !errors.Is(err, machine.ErrRecvTimeout) {
		t.Errorf("err = %v, want recv timeout", err)
	}
}

// Harness self-test: the comparison must be able to fail. One extra cycle of
// link latency moves the makespan of a single ping by exactly one unit — the
// smallest divergence there is — and the comparison must catch it and name
// the makespan.
func TestEngineDiffDetectsOneCycleDivergence(t *testing.T) {
	c := pingCase()
	byName := readWitness(t)
	want := byName[c.name]
	got, err := observe(c, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := diffRecord(want, got); err != nil {
		t.Fatalf("unperturbed run diverges: %v", err)
	}

	cfg := c.cfg
	cfg.Latency++
	got, err = observe(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan+1 {
		t.Fatalf("perturbed makespan %d, want exactly %d+1", got.Makespan, want.Makespan)
	}
	err = diffRecord(want, got)
	if err == nil {
		t.Fatal("one-cycle makespan divergence went undetected")
	}
	if !strings.Contains(err.Error(), "makespan diverges") {
		t.Errorf("divergence misreported: %v", err)
	}
}

// Harness self-test at the Fig. 6 level: a perturbed cost table makes a full
// variant's comparison fail.
func TestEngineDiffDetectsPerturbedCostTable(t *testing.T) {
	const name = "S4/optimized III (blocked)/chaos=false"
	for _, c := range fig6Cases() {
		if c.name != name {
			continue
		}
		cfg := c.cfg
		cfg.OpCost++
		got, err := observe(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := readWitness(t)
		if diffRecord(want[name], got) == nil {
			t.Fatal("perturbed cost table went undetected")
		}
		return
	}
	t.Fatalf("no case %q", name)
}
