// Package machine simulates the message-passing multicomputer of the paper's
// §2.2: n processors, each executing one process, communicating through
// explicit sends and receives, where "the cost of accessing a data item is
// binary — local access is more efficient than non-local access, but all
// non-local accesses are equally expensive."
//
// Each simulated processor carries a virtual clock measured in abstract
// cycles. Compute advances the clock; Send charges the sender a start-up cost
// plus a per-value packing cost and stamps the message with its wire-arrival
// time; Recv waits for the matching (source, tag) FIFO, advances the
// receiver's clock to the arrival stamp if it was earlier, and charges an
// unpacking cost. Because processes interact only through these
// point-to-point FIFOs and every receive names its source and tag, the
// simulated clocks and delivered values are deterministic regardless of Go
// scheduling. The execution time of a run is the makespan — the maximum
// final clock over all processors — which is what the paper's Figures 6 and
// 7 plot against the number of processors.
//
// One simulation core implements these semantics: a single-threaded
// discrete-event loop (event.go). At most one process executes at any
// instant, and a (clock, id) priority queue of runnable processes decides who
// steps next, so a run costs no lock contention and no broadcast wake-ups.
// It replaced a machine of free-running goroutines, a mutex and
// condition-variable broadcasts; that core's behaviour is what
// testdata/golden/engine_witness.json records and internal/bench holds this
// one to.
package machine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"procdecomp/internal/faults"
	"procdecomp/internal/trace"
)

// Cost is virtual time in abstract machine cycles.
type Cost = uint64

// Config calibrates the simulated machine. The defaults model the Intel
// iPSC/2's defining property: message start-up costs hundreds of compute
// operations ("message-passing systems typically take hundreds to thousands
// of cycles to deliver messages", §1), so combining messages matters far more
// than shaving arithmetic.
type Config struct {
	// Procs is the number of processors (one process per processor, §2.2).
	Procs int
	// OpCost is the cost of one scalar arithmetic operation.
	OpCost Cost
	// MemCost is the cost of one local I-structure read or write.
	MemCost Cost
	// LoopCost is the per-iteration loop bookkeeping cost.
	LoopCost Cost
	// SendStartup is the fixed CPU cost to initiate any send.
	SendStartup Cost
	// RecvStartup is the fixed CPU cost to complete any receive.
	RecvStartup Cost
	// PerValue is the packing/unpacking CPU cost per value transferred,
	// charged to the sender and to the receiver.
	PerValue Cost
	// Latency is the wire time of flight, overlappable with computation.
	Latency Cost
	// ValueBytes is the size of one transferred value, for byte accounting.
	ValueBytes int
	// Placement, when non-nil, multiplexes the Procs virtual processes onto
	// physical nodes: Placement[i] is the node running process i. Node CPUs
	// serialize their residents' compute and message overhead, but time a
	// process spends blocked in a receive occupies no CPU — §5.4's latency
	// hiding. Nil means one process per processor (the paper's base model).
	Placement []int
	// Tracer, when non-nil, records a per-process event log of the run —
	// compute, send, recv, idle, and blocked spans with virtual-time
	// start/end, peer, tag, and value count. Nil (the default) disables
	// tracing; untraced runs pay only a nil check per action. Read the log
	// after Run returns (Run is the happens-before edge).
	Tracer *trace.Log
	// Faults, when non-nil, replaces the ideal fabric with a deterministic
	// seed-driven faulty one (drops, duplicates, ack loss and jitter — see
	// internal/faults) under a reliable transport: per-link sequence
	// numbers, acknowledgements, virtual-time retry timers with exponential
	// backoff, duplicate suppression, and in-order release (transport.go).
	// Delivered values are identical to a fault-free run; only virtual time
	// and the wire trace change. Compute charges are untouched. A message
	// lost forever (attempt budget exhausted) surfaces as a RecvTimeoutError
	// naming the blocked receive, never a hang. Nil (the default) keeps the
	// ideal fabric, bit-identical to earlier versions.
	Faults *faults.Schedule
	// Cancel, when non-nil, lets the host abort a run in wall-clock time:
	// once the channel is closed, every process fails at its next machine
	// action and Run returns a *CanceledError (errors.Is ErrCanceled).
	// Cancellation is best-effort — a run that completes before any process
	// takes another action returns its normal result — and the point of
	// interruption depends on host scheduling, so a canceled run's partial
	// clocks are not deterministic (finished runs are unaffected: nil Cancel,
	// or a channel that never closes, is bit-identical to earlier versions).
	// Typically wired to a context's Done channel by exec.RunSPMDCtx.
	Cancel <-chan struct{}
	// Heartbeat, when non-nil, is called by the event loop every
	// heartbeatEvery process dispatches with the current virtual clock. It
	// is a purely observational progress hook (pdserve streams it to
	// clients of long runs): it runs on the loop's own goroutine between
	// dispatches, must return promptly, and must not call back into the
	// machine. It has no effect on the simulation — clocks, traces, and
	// Stats are bit-identical with or without it.
	Heartbeat func(clock Cost)
}

// heartbeatEvery is the dispatch interval between Heartbeat calls.
const heartbeatEvery = 256

// DefaultConfig returns the iPSC/2-flavoured calibration used by the paper
// reproduction benchmarks: with OpCost 1, a minimal message costs 350× a
// scalar operation to send.
func DefaultConfig(procs int) Config {
	return Config{
		Procs:       procs,
		OpCost:      1,
		MemCost:     1,
		LoopCost:    1,
		SendStartup: 350,
		RecvStartup: 100,
		PerValue:    2,
		Latency:     50,
		ValueBytes:  4,
	}
}

// SharedMemoryConfig models the paper's other machine class (§1): a
// shared-memory multiprocessor like the BBN Butterfly, where "the cost of
// accessing a non-local data item (i.e., across the network) is on the order
// of tens of cycles". Moving a value is just a remote read/write — cheap but
// not free — so the same locality analysis still pays, just with smaller
// constant factors.
func SharedMemoryConfig(procs int) Config {
	return Config{
		Procs:       procs,
		OpCost:      1,
		MemCost:     1,
		LoopCost:    1,
		SendStartup: 10,
		RecvStartup: 10,
		PerValue:    1,
		Latency:     5,
		ValueBytes:  4,
	}
}

// Value is the unit of data exchanged between processes.
type Value = float64

type message struct {
	vals   []Value
	arrive Cost
	// seq is the sender's 1-based message counter — the stable edge ID the
	// tracer stamps on the send span and on the matching idle/recv spans,
	// so an analyzer can link both ends of every message.
	seq uint64
}

// key identifies a FIFO message queue within one destination's mailbox.
type key struct {
	src int
	tag int64
}

// fifo is one (dst, src, tag) message queue. Messages leave from q[head], and
// a queue that drains keeps its buffer and starts over at the front, so a
// steady exchange touches the allocator only while a queue is still growing.
type fifo struct {
	tag  int64
	q    []message
	head int
}

// len counts the messages waiting; a queue nobody has sent on yet (nil) has
// none.
func (f *fifo) len() int {
	if f == nil {
		return 0
	}
	return len(f.q) - f.head
}

func (f *fifo) push(msg message) {
	if len(f.q) == cap(f.q) && f.head > len(f.q)/2 {
		// Full, but mostly of messages already received (the receiver keeps
		// up without ever catching up): slide the rest down instead of
		// growing, so the buffer stays proportional to what is pending.
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q, f.head = f.q[:n], 0
	}
	f.q = append(f.q, msg)
}

func (f *fifo) pop() message {
	msg := f.q[f.head]
	f.q[f.head] = message{} // the values are the receiver's now
	if f.head++; f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return msg
}

// arenaChunk is how many values the machine allocates at a time for the
// copies Send keeps (keep).
const arenaChunk = 1024

// Breakdown partitions one process's virtual time: every cycle of its final
// clock is compute, communication overhead (packing/unpacking and start-up),
// or idle time spent blocked in a receive before the message arrived.
type Breakdown struct {
	Compute Cost
	Comm    Cost
	Idle    Cost
}

// Utilization is the fraction of the process's time spent computing.
func (b Breakdown) Utilization() float64 {
	total := b.Compute + b.Comm + b.Idle
	if total == 0 {
		return 0
	}
	return float64(b.Compute) / float64(total)
}

// Stats summarizes a finished run.
type Stats struct {
	Messages  int64       // total messages sent (application-level)
	Values    int64       // total values transferred
	Bytes     int64       // total bytes transferred
	Makespan  Cost        // max final clock over all processors
	ProcTimes []Cost      // final clock per processor
	Breakdown []Breakdown // per-processor time partition
	// Transport counters, nonzero only under Config.Faults.
	Retries    int64 // retransmission attempts by the reliable transport
	Duplicates int64 // redundant copies suppressed by the receiver transport
	Lost       int64 // messages lost forever (attempt budget exhausted)
}

// MeanUtilization averages the compute fraction over all processors.
func (s Stats) MeanUtilization() float64 {
	if len(s.Breakdown) == 0 {
		return 0
	}
	sum := 0.0
	for _, b := range s.Breakdown {
		sum += b.Utilization()
	}
	return sum / float64(len(s.Breakdown))
}

// Machine is one simulated multicomputer run. Create with New, execute with
// Run, then inspect Stats. A Machine is not reusable: a second Run is refused.
//
// Everything but mu, ran, running and canceled is touched only by whichever
// side of the event loop's coroutine switch is running (event.go) — the loop,
// or the one process it resumed — and so needs no lock.
type Machine struct {
	cfg Config

	// mu guards ran and running, and nothing else: it is what lets Stats,
	// called from any goroutine, refuse a mid-run snapshot.
	mu      sync.Mutex
	ran     bool // Run was called
	running bool // Run in progress

	// boxes[dst][src] holds the FIFOs of messages from src waiting at dst, one
	// per tag in use on that pair (a handful: found by scanning). A row is
	// made at the first send to dst.
	boxes [][][]fifo
	// waiting[pid] is the (src, tag) pid is parked receiving; meaningful
	// only while the event loop has it in evWaiting.
	waiting []key
	arena   []Value // unused rest of the current chunk of message values (keep)
	failed  error   // first failure; aborts everything

	// Fault-injection state (transport.go), allocated only when
	// Config.Faults is set.
	links [][]linkState        // per-(src,dst) transport state
	lost  []map[key]lostRecord // per-destination lost-forever messages

	msgs, vals               int64
	retries, dups, lostCount int64
	procs                    []*Proc
	sched                    *muxSched // nil unless Config.Placement multiplexes processes
	ev                       *evLoop

	// canceled is set by the Cancel watcher; processes poll it at every
	// machine action. It is the only cross-thread signal into the event
	// loop, which is why it is atomic rather than token-guarded.
	canceled atomic.Bool
}

// ErrDeadlock is returned by Run when every live process is blocked in Recv.
// The concrete error is a *DeadlockError carrying per-process diagnostics;
// errors.Is against this sentinel keeps working.
var ErrDeadlock = errors.New("machine: deadlock: all processes blocked in receive")

// ErrRecvTimeout is returned by Run when the receive watchdog diagnoses a
// blocked receive that can never be satisfied under the fault schedule (its
// message was lost forever, or its link is dead).
// The concrete error is a *RecvTimeoutError naming the blocked (src, tag).
var ErrRecvTimeout = errors.New("machine: receive watchdog timeout")

// ErrCanceled is returned by Run when the host closed Config.Cancel before
// the run finished. The concrete error is a *CanceledError.
var ErrCanceled = errors.New("machine: run canceled")

// CanceledError reports a run aborted through Config.Cancel. Proc and Clock
// name the first process that observed the cancellation and its virtual
// time; they describe where the abort landed, not a deterministic property of
// the program.
type CanceledError struct {
	Proc  int
	Clock Cost
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("machine: run canceled by the host at process %d, cycle %d", e.Proc, e.Clock)
}

// Is makes errors.Is(err, ErrCanceled) work.
func (e *CanceledError) Is(target error) bool { return target == ErrCanceled }

// errAborted interrupts processes blocked in Recv after another process
// failed; Run reports the original failure.
var errAborted = errors.New("machine: run aborted")

// errReused is what a second Run on the same Machine returns: clocks,
// counters, mailboxes and the first run's failure would all carry over.
var errReused = errors.New("machine: Run called twice on one Machine; a Machine is one run — make another with New")

// ErrRunInProgress is returned by Stats when called while Run is still in
// progress: the per-process clocks and time partitions are written lock-free
// by whichever process holds the execution token, and the only happens-before
// edge making them readable is Run returning, so a mid-run snapshot would be
// torn.
var ErrRunInProgress = errors.New("machine: Stats called while Run is in progress; per-process clocks are only readable after Run returns")

// New creates a machine with the given configuration.
func New(cfg Config) *Machine {
	if cfg.Procs <= 0 {
		panic(fmt.Sprintf("machine: Procs must be positive, got %d", cfg.Procs))
	}
	if cfg.ValueBytes <= 0 {
		cfg.ValueBytes = 4
	}
	m := &Machine{cfg: cfg}
	m.boxes = make([][][]fifo, cfg.Procs)
	m.waiting = make([]key, cfg.Procs)
	m.procs = make([]*Proc, cfg.Procs)
	procs := make([]Proc, cfg.Procs)
	for i := range procs {
		procs[i] = Proc{id: i, m: m}
		m.procs[i] = &procs[i]
	}
	if cfg.Faults != nil {
		m.links = make([][]linkState, cfg.Procs)
		for i := range m.links {
			m.links[i] = make([]linkState, cfg.Procs)
		}
		m.lost = make([]map[key]lostRecord, cfg.Procs)
	}
	if cfg.Placement != nil {
		sched, err := initMux(m, cfg.Placement)
		if err != nil {
			panic(err)
		}
		m.sched = sched
	}
	m.ev = newEvLoop(m)
	if cfg.Tracer != nil {
		cfg.Tracer.Begin(cfg.Procs, cfg.Placement)
	}
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Run executes body once per processor and waits for all processes to
// finish. A panic in any process (an I-structure error, for example) aborts
// the run and is returned as an error, as is deadlock. A body that calls
// runtime.Goexit ends the goroutine that called Run — Run does not return,
// but its deferred calls leave nothing of the run behind.
func (m *Machine) Run(body func(p *Proc)) error {
	m.mu.Lock()
	if m.ran {
		m.mu.Unlock()
		return errReused
	}
	m.ran, m.running = true, true
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		m.running = false
		m.mu.Unlock()
	}()
	if m.cfg.Cancel != nil {
		stop := make(chan struct{})
		defer close(stop)
		go m.watchCancel(stop)
	}
	m.ev.run(body)
	if t := m.cfg.Tracer; t != nil {
		t.End()
	}
	return m.failed
}

// watchCancel waits for Config.Cancel (or the end of the run) and raises the
// cancellation flag. The loop's single-threaded state may only be touched by
// the token holder, so the watcher records nothing else: processes discover
// the flag at their next machine action.
func (m *Machine) watchCancel(stop chan struct{}) {
	select {
	case <-m.cfg.Cancel:
		m.canceled.Store(true)
	case <-stop:
	}
}

// checkCancel aborts the calling process if the host canceled the run. It is
// the cancellation point of every machine action (Compute, Send, Recv), so a
// compute-bound process still observes cancellation between charges.
func (p *Proc) checkCancel() {
	m := p.m
	if m.cfg.Cancel == nil || !m.canceled.Load() {
		return
	}
	if m.failed == nil {
		m.failed = &CanceledError{Proc: p.id, Clock: p.clock}
	}
	panic(errAborted)
}

// Stats reports the metrics of a finished run. It must not be called while
// Run is in progress: the per-process clocks and time partitions are written
// lock-free by the token holder, and the only happens-before edge making them
// readable is Run returning. A mid-run call would be a data race, so Stats
// reports ErrRunInProgress instead of returning torn values.
func (m *Machine) Stats() (Stats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.running {
		return Stats{}, ErrRunInProgress
	}
	s := Stats{
		Messages:   m.msgs,
		Values:     m.vals,
		Bytes:      m.vals * int64(m.cfg.ValueBytes),
		ProcTimes:  make([]Cost, len(m.procs)),
		Breakdown:  make([]Breakdown, len(m.procs)),
		Retries:    m.retries,
		Duplicates: m.dups,
		Lost:       m.lostCount,
	}
	for i, p := range m.procs {
		s.ProcTimes[i] = p.clock
		s.Breakdown[i] = Breakdown{Compute: p.compute, Comm: p.comm, Idle: p.idle}
		if p.clock > s.Makespan {
			s.Makespan = p.clock
		}
	}
	return s, nil
}

// VerifyTrace reconciles the run's event log against its Breakdown: for every
// process the traced spans must tile [0, clock) exactly and their per-kind
// sums must equal the compute/comm/idle partition (compute + comm + idle ==
// final clock). It returns nil on an untraced machine. Call after Run.
func (m *Machine) VerifyTrace() error {
	t := m.cfg.Tracer
	if t == nil {
		return nil
	}
	s, err := m.Stats()
	if err != nil {
		return err
	}
	for i, b := range s.Breakdown {
		if err := t.Reconcile(i, b.Compute, b.Comm, b.Idle, s.ProcTimes[i]); err != nil {
			return fmt.Errorf("machine: trace does not reconcile with Breakdown: %w", err)
		}
	}
	return nil
}

// Proc is one simulated process, usable only from the body call Run gave it
// to. Neither its clocks nor the mailboxes it reaches need locking: a process
// runs only while the event loop has switched to it.
type Proc struct {
	id    int
	m     *Machine
	clock Cost
	// time partition (compute + comm + idle == clock)
	compute Cost
	comm    Cost
	idle    Cost
	// msgSeq counts this process's sends, 1-based; stamped on messages and
	// trace events as the stable (sender, seq) message edge ID.
	msgSeq uint64
}

// ID returns the processor number, 0..Procs-1 — the paper's mynode().
func (p *Proc) ID() int { return p.id }

// Procs returns the machine size.
func (p *Proc) Procs() int { return p.m.cfg.Procs }

// Clock returns the process's current virtual time.
func (p *Proc) Clock() Cost { return p.clock }

// Compute advances the clock by c cycles of local work.
func (p *Proc) Compute(c Cost) {
	p.checkCancel()
	// admit and charge, spelled out: this is the simulator's hottest call,
	// and with one process per node it is one addition.
	if s := p.m.sched; s != nil {
		p.admit()
		s.busy(p, c)
	} else {
		p.clock += c
	}
	p.compute += c
	if t := p.m.cfg.Tracer; t != nil {
		t.Emit(trace.Event{Proc: p.id, Kind: trace.KindCompute, Start: p.clock - c, End: p.clock, Peer: -1})
	}
}

// Ops charges n scalar operations.
func (p *Proc) Ops(n int64) { p.Compute(Cost(n) * p.m.cfg.OpCost) }

// Mem charges n local I-structure accesses.
func (p *Proc) Mem(n int64) { p.Compute(Cost(n) * p.m.cfg.MemCost) }

// LoopStep charges one loop-iteration bookkeeping step.
func (p *Proc) LoopStep() { p.Compute(p.m.cfg.LoopCost) }

// LoopSteps charges n loop iterations that each make a bookkeeping step and
// ops scalar operations, as one Compute: n·ops·OpCost + n·LoopCost, the sum
// the separate charges would make, traced as the one compute span the tracer
// would have coalesced them into. It declines, charging nothing and returning
// false, under Config.Placement: there each charge is scheduled on a shared
// CPU by itself, so the caller must make them one at a time.
func (p *Proc) LoopSteps(n, ops int64) bool {
	if p.m.sched != nil {
		return false
	}
	cfg := &p.m.cfg
	p.Compute(Cost(n) * (Cost(ops)*cfg.OpCost + cfg.LoopCost))
	return true
}

// Send transmits vals to processor dst with the given tag: the paper's
// csend. The sender is charged start-up plus per-value packing; the message
// arrives on the wire Latency cycles later. Sends are buffered and never
// block (iPSC semantics: csend returns once the message is copied out).
//
// Config.Placement decides two things here and in Recv, and nothing else:
// whether the action first waits for conservative admission (admit), and
// whether its CPU cost lands on the process's own clock or on its node's
// (charge).
func (p *Proc) Send(dst int, tag int64, vals ...Value) {
	if dst < 0 || dst >= p.m.cfg.Procs {
		panic(fmt.Sprintf("machine: send to processor %d out of range [0,%d)", dst, p.m.cfg.Procs))
	}
	p.checkCancel()
	m := p.m
	cfg := &m.cfg
	// A process still runnable after the run failed dies at its next send:
	// under faults before it transmits, and in any case before the message
	// is enqueued.
	if cfg.Faults != nil && m.failed != nil {
		panic(errAborted)
	}
	p.admit()

	p.msgSeq++
	over := cfg.SendStartup + Cost(len(vals))*cfg.PerValue
	p.charge(over)
	p.comm += over
	if t := cfg.Tracer; t != nil {
		t.Emit(trace.Event{Proc: p.id, Kind: trace.KindSend, Start: p.clock - over, End: p.clock,
			Peer: dst, Tag: tag, Values: len(vals), Seq: p.msgSeq})
	}
	arrive, ok := p.clock+cfg.Latency, true
	if cfg.Faults != nil {
		arrive, ok = m.transmit(p, dst, tag, len(vals), p.clock)
	}
	if m.failed != nil {
		panic(errAborted)
	}
	m.msgs++
	m.vals += int64(len(vals))
	if !ok {
		// Lost forever: nothing arrives, but a receiver parked on this link
		// must wake and run its watchdog check.
		m.ev.wakeLoss(dst, p.id)
		return
	}
	k := key{src: p.id, tag: tag}
	m.queueFor(dst, k).push(message{vals: m.keep(vals), arrive: arrive, seq: p.msgSeq})
	// A receiver parked on exactly this message becomes runnable now, in the
	// same step as the send, so under Placement no process with a larger
	// clock can be admitted ahead of it.
	m.ev.wakeRecv(dst, k)
}

// queue returns the FIFO of messages from k.src with tag k.tag waiting at dst,
// or nil if none was ever sent.
func (m *Machine) queue(dst int, k key) *fifo {
	if m.boxes[dst] == nil {
		return nil
	}
	fs := m.boxes[dst][k.src]
	for i := range fs {
		if fs[i].tag == k.tag {
			return &fs[i]
		}
	}
	return nil
}

// queueFor is queue for a sender: it makes what is missing. The pointer is
// good until the next queueFor on the same (dst, src) pair.
func (m *Machine) queueFor(dst int, k key) *fifo {
	if f := m.queue(dst, k); f != nil {
		return f
	}
	if m.boxes[dst] == nil {
		m.boxes[dst] = make([][]fifo, m.cfg.Procs)
	}
	fs := append(m.boxes[dst][k.src], fifo{tag: k.tag})
	m.boxes[dst][k.src] = fs
	return &fs[len(fs)-1]
}

// keep copies a message's values into memory the machine never writes again:
// the next free stretch of the run's current chunk (a new chunk when it does
// not fit, the message's own when it is larger than a chunk). The slice Recv
// hands out is therefore the receiver's to keep and, its capacity clipped, to
// append to; a chunk is collected when the last slice into it is.
func (m *Machine) keep(vals []Value) []Value {
	n := len(vals)
	if n == 0 {
		return nil
	}
	if n > len(m.arena) {
		if n >= arenaChunk {
			return append([]Value(nil), vals...)
		}
		m.arena = make([]Value, arenaChunk)
	}
	kept := m.arena[:n:n]
	m.arena = m.arena[n:]
	copy(kept, vals)
	return kept
}

// Recv blocks until a message with the given tag from processor src is
// available — the paper's crecv. The receiver's clock advances to the
// message's arrival time if it was earlier (idle wait, which occupies no CPU:
// under Placement co-residents run during it), then is charged start-up plus
// per-value unpacking. The returned slice belongs to the caller: no later
// message overwrites it.
func (p *Proc) Recv(src int, tag int64) []Value {
	if src < 0 || src >= p.m.cfg.Procs {
		panic(fmt.Sprintf("machine: recv from processor %d out of range [0,%d)", src, p.m.cfg.Procs))
	}
	p.checkCancel()
	m := p.m
	cfg := &m.cfg
	k := key{src: src, tag: tag}
	var q *fifo
	for {
		p.admit()
		if q = m.queue(p.id, k); q.len() > 0 {
			break
		}
		if m.failed != nil {
			panic(errAborted)
		}
		// The watchdog: a receive that can be proven unsatisfiable — its
		// message lost forever, or its link dead — fails now, at the
		// receiver's virtual time, instead of hanging until (or past) global
		// quiescence.
		if reason := m.recvUnsatisfiable(p.id, k); reason != "" {
			m.failed = &RecvTimeoutError{Proc: p.id, Src: src, Tag: tag, Clock: p.clock, Reason: reason}
			panic(errAborted)
		}
		m.ev.wait(p, k)
	}
	msg := q.pop()
	if msg.arrive > p.clock {
		if t := cfg.Tracer; t != nil {
			t.Emit(trace.Event{Proc: p.id, Kind: trace.KindIdle, Start: p.clock, End: msg.arrive,
				Peer: src, Tag: tag, Seq: msg.seq, Arrive: msg.arrive})
		}
		p.idle += msg.arrive - p.clock
		p.clock = msg.arrive
	}
	over := cfg.RecvStartup + Cost(len(msg.vals))*cfg.PerValue
	p.charge(over)
	p.comm += over
	if t := cfg.Tracer; t != nil {
		t.Emit(trace.Event{Proc: p.id, Kind: trace.KindRecv, Start: p.clock - over, End: p.clock,
			Peer: src, Tag: tag, Values: len(msg.vals), Seq: msg.seq, Arrive: msg.arrive})
	}
	return msg.vals
}

// Recv1 receives a single-value message and returns the value.
func (p *Proc) Recv1(src int, tag int64) Value {
	vals := p.Recv(src, tag)
	if len(vals) != 1 {
		panic(fmt.Sprintf("machine: Recv1 got %d values", len(vals)))
	}
	return vals[0]
}
