package autotune

import (
	"fmt"

	"procdecomp/internal/analysis"
	"procdecomp/internal/exec"
	"procdecomp/internal/machine"
	"procdecomp/internal/spmd"
	"procdecomp/internal/trace"
)

// The static cost model: an abstract run of each process's compiled program
// (exec.Lower, then Walk — the interpreter's own stepper over a domain that
// computes no data values), recorded as an action sequence. Control flow —
// loop bounds, guards, message endpoints — is evaluated over the integer
// frame exactly as in a real run, because it is the same code; data values are
// "unknown" and only become an error if control flow ever depends on one
// (ErrUnmodeled, the fallback-to-measurement signal).
//
// The walk of one process yields its actions: coalesced compute spans, sends,
// and receives, in program order. Because no modeled program's control flow
// depends on received values, every process can be walked independently; the
// message matching (k-th receive on a (src,tag) channel pairs with the
// sender's k-th send on it) reproduces the machine's FIFO mailbox semantics.
// Replaying the matched DAG with analysis.Replay — the replay pdtrace's
// what-if scenarios use — yields the predicted makespan, exact whenever the
// walk succeeded.

// ErrUnmodeled reports a program whose control flow the static walk cannot
// decide (a branch on a computed data value). Candidates that hit it fall
// back to direct measurement.
type ErrUnmodeled struct {
	Proc   int
	Reason string
}

func (e *ErrUnmodeled) Error() string {
	return fmt.Sprintf("autotune: process %d not statically modelable: %s", e.Proc, e.Reason)
}

// Profile is the abstract execution of all processes: the statically derived
// communication DAG plus per-process busy times.
type Profile struct {
	Procs int
	Acts  [][]analysis.Action
	// Messages/Values totals, after matching.
	Messages int64
	Values   int64
}

// chanKey identifies a FIFO message channel: the machine keys receiver
// mailboxes by (src, tag), so per (src, dst, tag) delivery is in send order.
type chanKey struct {
	src, dst int
	tag      int64
}

// BuildProfile walks the compiled programs (one generic or cfg.Procs
// specialized, as exec.RunSPMD accepts them) and returns the matched profile.
func BuildProfile(progs []*spmd.Program, cfg machine.Config) (*Profile, error) {
	pick, err := exec.PerProcess(progs, cfg.Procs)
	if err != nil {
		return nil, err
	}
	pf := &Profile{Procs: cfg.Procs, Acts: make([][]analysis.Action, cfg.Procs)}
	var prev []analysis.Action
	var low *exec.Lowered
	for p := 0; p < cfg.Procs; p++ {
		// The generic program of run-time resolution is lowered once, not
		// once per process.
		if p == 0 || pick(p) != pick(p-1) {
			low = exec.Lower(pick(p))
		}
		// SPMD processes do alike work: size p's list by its predecessor's.
		r := recorder{cfg: &cfg, acts: make([]analysis.Action, 0, len(prev))}
		if err := low.Walk(p, &r); err != nil {
			return nil, &ErrUnmodeled{Proc: p, Reason: err.Error()}
		}
		r.flush()
		pf.Acts[p], prev = r.acts, r.acts
	}
	if err := pf.match(); err != nil {
		return nil, err
	}
	return pf, nil
}

// recorder is the exec.Sink that turns one process's walk into actions:
// charges accumulate into a compute span that each send or receive closes.
type recorder struct {
	cfg  *machine.Config
	acts []analysis.Action
	acc  uint64 // pending compute cycles
}

func (r *recorder) Procs() int  { return r.cfg.Procs }
func (r *recorder) Ops(n int64) { r.acc += uint64(n) * r.cfg.OpCost }
func (r *recorder) Mem(n int64) { r.acc += uint64(n) * r.cfg.MemCost }
func (r *recorder) LoopStep()   { r.acc += r.cfg.LoopCost }

func (r *recorder) flush() {
	if r.acc > 0 {
		r.acts = append(r.acts, analysis.Action{Kind: trace.KindCompute, Dur: r.acc})
		r.acc = 0
	}
}

// message closes the pending compute span and records one send or receive,
// refusing a peer outside the machine as the machine itself would.
func (r *recorder) message(kind trace.Kind, verb string, peer int, tag int64, values int) error {
	if peer < 0 || peer >= r.cfg.Procs {
		return fmt.Errorf("%s processor %d out of range [0,%d)", verb, peer, r.cfg.Procs)
	}
	r.flush()
	r.acts = append(r.acts, analysis.Action{Kind: kind, Peer: peer, Tag: tag, Values: values})
	return nil
}

func (r *recorder) Send(dst int, tag int64, values int) error {
	return r.message(trace.KindSend, "send to", dst, tag, values)
}

// Recv records the expected value count; match checks it against the send.
func (r *recorder) Recv(src int, tag int64, values int) error {
	return r.message(trace.KindRecv, "recv from", src, tag, values)
}

// match pairs receives with sends channel by channel, numbering each
// sender's messages from 1 as the machine does, so a receive names its
// message by (sender, number) exactly as a traced run's would. A receive
// with no matching send means the candidate would deadlock.
func (pf *Profile) match() error {
	sends := map[chanKey][]*analysis.Action{}
	recvs := map[chanKey][]*analysis.Action{}
	for p := range pf.Acts {
		var sent uint64
		for i := range pf.Acts[p] {
			a := &pf.Acts[p][i]
			switch a.Kind {
			case trace.KindSend:
				sent++
				a.Seq = sent
				k := chanKey{src: p, dst: a.Peer, tag: a.Tag}
				sends[k] = append(sends[k], a)
				pf.Messages++
				pf.Values += int64(a.Values)
			case trace.KindRecv:
				k := chanKey{src: a.Peer, dst: p, tag: a.Tag}
				recvs[k] = append(recvs[k], a)
			}
		}
	}
	for k, rs := range recvs {
		ss := sends[k]
		if len(rs) > len(ss) {
			return fmt.Errorf("autotune: candidate deadlocks: %d receive(s) on %d->%d tag %d have no matching send",
				len(rs)-len(ss), k.src, k.dst, k.tag)
		}
		for i, r := range rs {
			if r.Values != ss[i].Values {
				return fmt.Errorf("autotune: block receive on %d->%d tag %d expects %d values, send carries %d",
					k.src, k.dst, k.tag, r.Values, ss[i].Values)
			}
			r.Seq = ss[i].Seq
		}
	}
	return nil
}

// Busy returns each process's busy time: compute plus send/receive overheads,
// with all waits excluded. The maximum is the tier-1 static score — a lower
// bound on the candidate's makespan, cheap enough to rank the whole space.
func (pf *Profile) Busy(cfg machine.Config) []uint64 {
	busy := make([]uint64, pf.Procs)
	for p, acts := range pf.Acts {
		for _, a := range acts {
			switch a.Kind {
			case trace.KindCompute:
				busy[p] += a.Dur
			case trace.KindSend:
				busy[p] += cfg.SendStartup + uint64(a.Values)*cfg.PerValue
			case trace.KindRecv:
				busy[p] += cfg.RecvStartup + uint64(a.Values)*cfg.PerValue
			}
		}
	}
	return busy
}

// Static is the tier-1 score: the maximum busy time over processes.
func (pf *Profile) Static(cfg machine.Config) uint64 {
	var max uint64
	for _, b := range pf.Busy(cfg) {
		if b > max {
			max = b
		}
	}
	return max
}

// Predict replays the profile's communication DAG under the machine's cost
// parameters and returns the predicted makespan — the tier-2 score.
func (pf *Profile) Predict(cfg machine.Config) (uint64, error) {
	return analysis.Replay(pf.Acts, analysis.CostsOf(cfg))
}
