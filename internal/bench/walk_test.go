package bench

import (
	"fmt"
	"testing"

	"procdecomp/internal/exec"
	"procdecomp/internal/istruct"
	"procdecomp/internal/machine"
	"procdecomp/internal/spmd"
	"procdecomp/internal/trace"
	"procdecomp/internal/xform"
)

// endpoint is one message action as both a Sink and a trace see it.
type endpoint struct {
	kind   trace.Kind
	peer   int
	tag    int64
	values int
}

// countingSink totals a walk's compute cycles and lists its message actions.
type countingSink struct {
	cfg    machine.Config
	cycles uint64
	msgs   []endpoint
}

func (s *countingSink) Procs() int  { return s.cfg.Procs }
func (s *countingSink) Ops(n int64) { s.cycles += uint64(n) * s.cfg.OpCost }
func (s *countingSink) Mem(n int64) { s.cycles += uint64(n) * s.cfg.MemCost }
func (s *countingSink) LoopStep()   { s.cycles += s.cfg.LoopCost }

func (s *countingSink) LoopSteps(n, ops int64) {
	s.cycles += uint64(n) * (uint64(ops)*s.cfg.OpCost + s.cfg.LoopCost)
}

func (s *countingSink) Send(dst int, tag int64, values int) error {
	s.msgs = append(s.msgs, endpoint{trace.KindSend, dst, tag, values})
	return nil
}

func (s *countingSink) Recv(src int, tag int64, values int) error {
	s.msgs = append(s.msgs, endpoint{trace.KindRecv, src, tag, values})
	return nil
}

// The abstract run and the real run are one stepper over two domains, so they
// must agree charge site by charge site, on every process — not only on the
// makespan, where errors off the critical path (or compensating ones on it)
// would hide. For every compiled variant, and the reversed-loop program under
// every mode, × S∈{1,4,8}: process p's walked compute cycles equal its
// measured Breakdown.Compute, and its walked send/recv sequence equals the
// traced one, endpoint, tag and value count.
func TestWalkMatchesRunPerProcess(t *testing.T) {
	const n, blk = 16, 4
	for _, procs := range []int{1, 4, 8} {
		compiled := map[string][]*spmd.Program{}
		for _, spec := range Variants() {
			if spec.Handwritten {
				continue
			}
			progs, err := CompileGS(spec.Variant, procs, n, blk)
			if err != nil {
				t.Fatalf("%s S=%d: %v", spec.Name, procs, err)
			}
			compiled[spec.Name] = progs
		}
		info, err := checkGS(GSReversedSource, procs, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range xform.StandardModes() {
			progs, err := xform.Compile(info, "gs_iteration", mode, blk)
			if err != nil {
				t.Fatalf("reversed %s S=%d: %v", mode, procs, err)
			}
			compiled["reversed/"+mode] = progs
		}
		for name, progs := range compiled {
			t.Run(fmt.Sprintf("%s/S=%d", name, procs), func(t *testing.T) {
				cfg := machine.DefaultConfig(procs)
				tr := trace.New()
				cfg.Tracer = tr
				out, err := exec.RunSPMD(progs, cfg, map[string]*istruct.Matrix{"Old": Input(n)})
				if err != nil {
					t.Fatal(err)
				}
				pick, err := exec.PerProcess(progs, procs)
				if err != nil {
					t.Fatal(err)
				}
				for p := 0; p < procs; p++ {
					sink := &countingSink{cfg: cfg}
					if err := exec.Lower(pick(p)).Walk(p, sink); err != nil {
						t.Fatalf("process %d: walk: %v", p, err)
					}
					if got, want := sink.cycles, uint64(out.Stats.Breakdown[p].Compute); got != want {
						t.Errorf("process %d: walked %d compute cycles, the run charged %d", p, got, want)
					}
					var traced []endpoint
					for _, e := range tr.Events(p) {
						if e.Kind == trace.KindSend || e.Kind == trace.KindRecv {
							traced = append(traced, endpoint{e.Kind, e.Peer, e.Tag, e.Values})
						}
					}
					if len(traced) != len(sink.msgs) {
						t.Fatalf("process %d: walked %d message actions, the run traced %d", p, len(sink.msgs), len(traced))
					}
					for i := range traced {
						if traced[i] != sink.msgs[i] {
							t.Fatalf("process %d: message action %d walked as %+v, traced as %+v", p, i, sink.msgs[i], traced[i])
						}
					}
				}
			})
		}
	}
}
