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

// walkScratch recycles what a walk is recorded and matched in, so that
// growing it by doubling is paid once per worker rather than once per walk:
// the recorder and the list it appends into, each process's end in that
// list and its actions there, and match's working storage.
var walkScratch = sync.Pool{New: func() any { return new(scratch) }}

type scratch struct {
	cfg  machine.Config
	rec  recorder
	ends []int
	acts [][]analysis.Action // each process's actions, in rec.acts
	m    matcher
}

// walk walks every process of the image into sc and matches the actions in
// place; sc.acts holds them until sc is walked again. A walk the image's
// control flow defeats is *ErrUnmodeled; a receive no send matches, or one
// expecting another value count, is match's error.
func (sc *scratch) walk(img *exec.Image, cfg machine.Config) (messages, values int64, err error) {
	sc.cfg = cfg
	r := &sc.rec
	r.cfg, r.acts, r.acc = &sc.cfg, r.acts[:0], 0
	sc.ends = sc.ends[:0]
	for p := range cfg.Procs {
		if err := img.Walk(p, r); err != nil {
			return 0, 0, &ErrUnmodeled{Proc: p, Reason: err.Error()}
		}
		r.flush()
		sc.ends = append(sc.ends, len(r.acts))
	}
	sc.acts = sc.acts[:0]
	start := 0
	for _, end := range sc.ends {
		sc.acts = append(sc.acts, r.acts[start:end:end])
		start = end
	}
	return sc.m.match(sc.acts)
}

// getScratch takes a scratch from the pool; release returns it.
func getScratch() *scratch { return walkScratch.Get().(*scratch) }

func (sc *scratch) release() {
	sc.cfg = machine.Config{} // keep nothing of the caller's
	walkScratch.Put(sc)
}

// score is tier 1's walk of an image: its static score, the walk matched in
// a pooled scratch and kept nowhere.
func score(img *exec.Image, cfg machine.Config) (uint64, error) {
	sc := getScratch()
	defer sc.release()
	if _, _, err := sc.walk(img, cfg); err != nil {
		return 0, err
	}
	return static(sc.acts, cfg), nil
}

// profileOf walks the image in a pooled scratch, then copies the finished
// lists out at their exact size into one backing array: a profile's garbage
// is nothing, not the doubled slices it grew through.
func profileOf(img *exec.Image, cfg machine.Config) (*Profile, error) {
	sc := getScratch()
	defer sc.release()
	msgs, vals, err := sc.walk(img, cfg)
	if err != nil {
		return nil, err
	}
	pf := &Profile{Procs: cfg.Procs, Acts: make([][]analysis.Action, cfg.Procs), Messages: msgs, Values: vals}
	all := slices.Clone(sc.rec.acts) // not zeroed first, as make and copy would
	start := 0
	for p, end := range sc.ends {
		pf.Acts[p] = all[start:end:end]
		start = end
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

func (r *recorder) Procs() int        { return r.cfg.Procs }
func (r *recorder) Ops(n int64)       { r.acc += uint64(n) * r.cfg.OpCost }
func (r *recorder) Mem(n int64)       { r.acc += uint64(n) * r.cfg.MemCost }
func (r *recorder) LoopStep()         { r.acc += r.cfg.LoopCost }
func (r *recorder) LoopSteps(n int64) { r.acc += uint64(n) * r.cfg.LoopCost }

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

// A matcher is match's working storage, kept between matches: one entry per
// channel in order of first appearance and the map that finds it, each
// message's channel in message order, and each channel's sends.
type matcher struct {
	chans []channel
	at    map[chanKey]int32
	of    []int32
	sent  []*analysis.Action
}

// channel is one channel of a match: its sends occupy sent[off : off+sends],
// filled up to fill; recvd counts the receives matched so far.
type channel struct {
	key                            chanKey
	sends, recvs, off, fill, recvd int
}

// match pairs receives with sends channel by channel, numbering each
// sender's messages from 1 as the machine does, so a receive names its
// message by (sender, number) exactly as a traced run's would, and returns
// the messages and values sent. A receive with no matching send means the
// candidate would deadlock. Both ends of every channel are counted before any
// list is filled, so the lists grow at once, to their size. The first pass
// looks each message's channel up once and keeps it in m.of, in message
// order, for the other two.
func (m *matcher) match(acts [][]analysis.Action) (messages, values int64, err error) {
	m.chans = m.chans[:0]
	if m.at == nil {
		m.at = map[chanKey]int32{}
	}
	clear(m.at)
	n := 0
	for p := range acts {
		n += len(acts[p])
	}
	m.of = slices.Grow(m.of[:0], n) // at most one entry per action
	lookup := func(k chanKey) *channel {
		i, ok := m.at[k]
		if !ok {
			i = int32(len(m.chans))
			m.at[k] = i
			m.chans = append(m.chans, channel{key: k})
		}
		m.of = append(m.of, i)
		return &m.chans[i]
	}
	for p := range acts {
		var sent uint64
		for i := range acts[p] {
			a := &acts[p][i]
			switch a.Kind {
			case trace.KindSend:
				sent++
				a.Seq = sent
				lookup(chanKey{src: p, dst: a.Peer, tag: a.Tag}).sends++
				messages++
				values += int64(a.Values)
			case trace.KindRecv:
				lookup(chanKey{src: a.Peer, dst: p, tag: a.Tag}).recvs++
			}
		}
	}
	for i := range m.chans {
		c := &m.chans[i]
		if c.recvs > c.sends {
			return 0, 0, fmt.Errorf("autotune: candidate deadlocks: %d receive(s) on %d->%d tag %d have no matching send",
				c.recvs-c.sends, c.key.src, c.key.dst, c.key.tag)
		}
		if i > 0 {
			c.off = m.chans[i-1].off + m.chans[i-1].sends
		}
	}
	m.sent = slices.Grow(m.sent[:0], int(messages))[:messages]
	k := 0 // the message's index in of
	for p := range acts {
		for i := range acts[p] {
			switch a := &acts[p][i]; a.Kind {
			case trace.KindSend:
				c := &m.chans[m.of[k]]
				m.sent[c.off+c.fill] = a
				c.fill++
				k++
			case trace.KindRecv:
				k++
			}
		}
	}
	k = 0
	for p := range acts {
		for i := range acts[p] {
			switch r := &acts[p][i]; r.Kind {
			case trace.KindSend:
				k++
			case trace.KindRecv:
				c := &m.chans[m.of[k]]
				k++
				s := m.sent[c.off+c.recvd]
				c.recvd++
				if r.Values != s.Values {
					return 0, 0, fmt.Errorf("autotune: block receive on %d->%d tag %d expects %d values, send carries %d",
						c.key.src, c.key.dst, c.key.tag, r.Values, s.Values)
				}
				r.Seq = s.Seq
			}
		}
	}
	return messages, values, nil
}

// busyOf is one process's busy time: compute plus send/receive overheads,
// with all waits excluded. The maximum over processes is the tier-1 static
// score — a lower bound on the candidate's makespan, cheap enough to rank the
// whole space.
func busyOf(acts []analysis.Action, cfg machine.Config) (busy uint64) {
	for _, a := range acts {
		switch a.Kind {
		case trace.KindCompute:
			busy += a.Dur
		case trace.KindSend:
			busy += cfg.SendStartup + uint64(a.Values)*cfg.PerValue
		case trace.KindRecv:
			busy += cfg.RecvStartup + uint64(a.Values)*cfg.PerValue
		}
	}
	return busy
}

// Static is the tier-1 score: the maximum busy time over processes.
func (pf *Profile) Static(cfg machine.Config) uint64 { return static(pf.Acts, cfg) }

func static(acts [][]analysis.Action, cfg machine.Config) (max uint64) {
	for _, as := range acts {
		if b := busyOf(as, cfg); b > max {
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
