package autotune

import (
	"fmt"
	"slices"
	"sync"

	"procdecomp/internal/analysis"
	"procdecomp/internal/exec"
	"procdecomp/internal/machine"
	"procdecomp/internal/spmd"
	"procdecomp/internal/trace"
)

// The static cost model: an abstract run of each process's compiled program
// (exec.LowerAll, then Walk — the interpreter's own stepper over a domain that
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
	img, err := exec.LowerAll(progs, cfg.Procs)
	if err != nil {
		return nil, err
	}
	return profileOf(img, cfg)
}

// walkScratch recycles what a profile is built in, so that growing it by
// doubling is paid once per worker rather than once per profile: the recorder
// and the list it appends into, each process's end in that list, and match's
// channel of each message.
var walkScratch = sync.Pool{New: func() any { return new(scratch) }}

type scratch struct {
	cfg   machine.Config
	rec   recorder
	ends  []int
	chans []int32
}

// profileOf walks every process of the image into one scratch list, then
// copies the finished lists out at their exact size into one backing array:
// a profile's garbage is nothing, not the doubled slices it grew through.
func profileOf(img *exec.Image, cfg machine.Config) (*Profile, error) {
	sc := walkScratch.Get().(*scratch)
	defer func() {
		sc.cfg = machine.Config{} // keep nothing of the caller's
		walkScratch.Put(sc)
	}()
	sc.cfg = cfg
	r := &sc.rec
	r.cfg, r.acts, r.acc = &sc.cfg, r.acts[:0], 0
	sc.ends = sc.ends[:0]
	for p := range cfg.Procs {
		if err := img.Walk(p, r); err != nil {
			return nil, &ErrUnmodeled{Proc: p, Reason: err.Error()}
		}
		r.flush()
		sc.ends = append(sc.ends, len(r.acts))
	}
	pf := &Profile{Procs: cfg.Procs, Acts: make([][]analysis.Action, cfg.Procs)}
	all := slices.Clone(r.acts) // not zeroed first, as make and copy would
	start := 0
	for p, end := range sc.ends {
		pf.Acts[p] = all[start:end:end]
		start = end
	}
	// At most one entry per action: grown at once, never by doubling.
	sc.chans = slices.Grow(sc.chans[:0], len(all))
	if err := pf.match(&sc.chans); err != nil {
		return nil, err
	}
	return pf, nil
}

// recorder is the exec.Sink that turns a walk into actions: charges accumulate
// into a compute span that each send or receive (or the caller's flush, at the
// end of a process) closes.
type recorder struct {
	cfg  *machine.Config
	acts []analysis.Action
	acc  uint64 // pending compute cycles
}

func (r *recorder) Procs() int  { return r.cfg.Procs }
func (r *recorder) Ops(n int64) { r.acc += uint64(n) * r.cfg.OpCost }
func (r *recorder) Mem(n int64) { r.acc += uint64(n) * r.cfg.MemCost }
func (r *recorder) LoopStep()   { r.acc += r.cfg.LoopCost }

func (r *recorder) LoopSteps(n, ops int64) {
	r.acc += uint64(n) * (uint64(ops)*r.cfg.OpCost + r.cfg.LoopCost)
}

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
// with no matching send means the candidate would deadlock. Both ends of
// every channel are counted before any list is built, so the lists are
// allocated once, at their size. The first pass looks each message's channel
// up once and keeps it in *chanOf, in message order, for the other two.
func (pf *Profile) match(chanOf *[]int32) error {
	// One entry per channel, in order of first appearance: its sends occupy
	// sent[off : off+sends], filled up to fill; recvd counts the receives
	// matched so far.
	type channel struct {
		key                            chanKey
		sends, recvs, off, fill, recvd int
	}
	var chans []channel
	at := map[chanKey]int32{}
	of := (*chanOf)[:0]
	defer func() { *chanOf = of }()
	lookup := func(k chanKey) *channel {
		i, ok := at[k]
		if !ok {
			i = int32(len(chans))
			at[k] = i
			chans = append(chans, channel{key: k})
		}
		of = append(of, i)
		return &chans[i]
	}
	for p := range pf.Acts {
		var sent uint64
		for i := range pf.Acts[p] {
			a := &pf.Acts[p][i]
			switch a.Kind {
			case trace.KindSend:
				sent++
				a.Seq = sent
				lookup(chanKey{src: p, dst: a.Peer, tag: a.Tag}).sends++
				pf.Messages++
				pf.Values += int64(a.Values)
			case trace.KindRecv:
				lookup(chanKey{src: a.Peer, dst: p, tag: a.Tag}).recvs++
			}
		}
	}
	for i := range chans {
		c := &chans[i]
		if c.recvs > c.sends {
			return fmt.Errorf("autotune: candidate deadlocks: %d receive(s) on %d->%d tag %d have no matching send",
				c.recvs-c.sends, c.key.src, c.key.dst, c.key.tag)
		}
		if i > 0 {
			c.off = chans[i-1].off + chans[i-1].sends
		}
	}
	sent := make([]*analysis.Action, pf.Messages)
	k := 0 // the message's index in of
	for p := range pf.Acts {
		for i := range pf.Acts[p] {
			switch a := &pf.Acts[p][i]; a.Kind {
			case trace.KindSend:
				c := &chans[of[k]]
				sent[c.off+c.fill] = a
				c.fill++
				k++
			case trace.KindRecv:
				k++
			}
		}
	}
	k = 0
	for p := range pf.Acts {
		for i := range pf.Acts[p] {
			switch r := &pf.Acts[p][i]; r.Kind {
			case trace.KindSend:
				k++
			case trace.KindRecv:
				c := &chans[of[k]]
				k++
				s := sent[c.off+c.recvd]
				c.recvd++
				if r.Values != s.Values {
					return fmt.Errorf("autotune: block receive on %d->%d tag %d expects %d values, send carries %d",
						c.key.src, c.key.dst, c.key.tag, r.Values, s.Values)
				}
				r.Seq = s.Seq
			}
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
