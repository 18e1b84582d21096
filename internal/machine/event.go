//go:build go1.23

// The line above is not a platform constraint: it raises this file's language
// version to 1.23, which package iter needs, while go.mod stays at 1.22
// (benchmarks/pdperf is a go 1.22 module that builds this package and may not
// change with it; go vet rejects the file without the line). The next PR
// allowed to edit benchmarks/ sets both go.mod files to 1.23 and deletes it.
// There is no engine for older toolchains.

package machine

import (
	"errors"
	"fmt"
	"iter"
)

// The discrete-event engine.
//
// The machine is a single-threaded discrete-event loop in virtual time:
//
//   - The event queue is a binary min-heap of runnable processes keyed by
//     (clock, id) — process ids break virtual-time ties, which is the
//     determinism rule. Each heap entry means "this process's next step is
//     an event at its current virtual time".
//   - Exactly one process executes at any instant. A process runs until its
//     next step cannot proceed — a receive on an empty queue, or (under
//     Placement) an action that must wait its conservative-admission turn
//     — then parks and the loop pops the minimal (clock, id) process and
//     resumes it. A send never parks.
//   - Wake-ups are exact, not broadcast: the process whose step creates the
//     awaited state (an enqueue for a parked receiver, a lost message for a
//     watchdogged receiver) moves exactly the affected process back into
//     the heap. A machine that instead wakes every parked process on every
//     event pays O(procs) per event and quadratic wall-clock in machine
//     size; the first core did (EXPERIMENTS, "Engine speedup").
//
// Processes keep the blocking Proc API (Compute/Send/Recv), so their stacks
// have to live somewhere: each process is a coroutine made by iter.Pull. The
// loop resumes one with next[pid](), the process gives control back by
// calling its yield (park) or by returning, and the runtime switches between
// the two directly — no channel, no scheduler wake-up, no second thread. One
// of them runs at a time by construction (it "holds the execution token"), so
// no event-path state needs a lock, and iter.Pull's own acquire/release pairs
// around every switch are the happens-before edges that keep the engine
// race-detector clean.
//
// Tearing a run down is stop[pid](): the parked process's yield returns
// false, park panics errAborted, and the body's deferred calls run on the way
// out. A body that leaves by runtime.Goexit (a t.Fatal inside a test body)
// ends the goroutine that called Run, as iter.Pull propagates it: the loop's
// deferred stopAll unwinds every other process first, so no coroutine
// outlives the run.
//
// Why any order the heap picks is the right one:
//
//   - One process per node: arrival stamps are computed at send time and
//     each (src, tag) FIFO has a single sender, so any execution order that
//     respects message availability yields bit-identical clocks, traces,
//     and counters. The heap order is one such order.
//   - Under Placement node CPUs are shared, so order matters: every action
//     first waits (admit) until its process holds the minimal (clock, id)
//     key among runnable processes. No later action can then causally
//     affect an admitted one (mux.go).

type evState uint8

const (
	evReady   evState = iota // in the run heap, waiting to be resumed
	evRunning                // holds the execution token
	evWaiting                // parked on the condition recorded in m.waiting[pid]
	evDone                   // body returned or process unwound
)

// evLoop is the event engine's state. Everything here is touched only by
// whichever side of a coroutine switch is running (the loop or exactly one
// process), so none of it is locked.
type evLoop struct {
	m *Machine
	// next[p] switches to process p until it parks or ends; stop[p] makes its
	// pending yield return false ("unwind now"). yield[p] is p's way back to
	// the loop, stored by p itself when it first runs.
	next  []func() (struct{}, bool)
	stop  []func()
	yield []func(struct{}) bool
	state []evState
	heap  []int32 // runnable pids, min-heap by (clock, id)
	live  int     // processes not yet evDone
}

func newEvLoop(m *Machine) *evLoop {
	return &evLoop{
		m:     m,
		next:  make([]func() (struct{}, bool), m.cfg.Procs),
		stop:  make([]func(), m.cfg.Procs),
		yield: make([]func(struct{}) bool, m.cfg.Procs),
		state: make([]evState, m.cfg.Procs),
		heap:  make([]int32, 0, m.cfg.Procs),
	}
}

// less orders heap entries by (clock, id) — the engine's tie-breaking rule.
func (ev *evLoop) less(a, b int32) bool {
	ca, cb := ev.m.procs[a].clock, ev.m.procs[b].clock
	return ca < cb || (ca == cb && a < b)
}

func (ev *evLoop) push(pid int32) {
	h := append(ev.heap, pid)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	ev.heap = h
}

func (ev *evLoop) pop() int32 {
	h := ev.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && ev.less(h[l], h[min]) {
			min = l
		}
		if r < len(h) && ev.less(h[r], h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	ev.heap = h
	return top
}

// ready moves a parked process into the run heap. Callers have already
// checked the process is evWaiting and its awaited condition now holds; its
// m.waiting entry is stale from here until it parks again, which is why every
// wake predicate checks the state before reading it.
func (ev *evLoop) ready(pid int) {
	ev.state[pid] = evReady
	ev.push(int32(pid))
}

// park switches back to the loop until p is resumed. The caller has already
// recorded why it is parked (state + m.waiting, or a heap entry for a
// conservative-admission wait). A false yield means the run is being torn
// down: unwind without touching any clocks.
func (ev *evLoop) park(p *Proc) {
	if !ev.yield[p.id](struct{}{}) {
		panic(errAborted)
	}
}

// main is the body wrapper of one process coroutine. Its recover classifies
// how the body ended: a secondary abort, or the run's first failure.
func (ev *evLoop) main(p *Proc, body func(p *Proc)) {
	defer func() {
		m := ev.m
		if r := recover(); r != nil {
			if err, ok := r.(error); ok && errors.Is(err, errAborted) {
				// Secondary abort; keep the original failure.
			} else if m.failed == nil {
				m.failed = fmt.Errorf("machine: process %d failed: %v", p.id, r)
			}
		}
		ev.state[p.id] = evDone
		ev.live--
	}()
	body(p)
}

// run is the event loop itself: it makes one coroutine per process and
// dispatches until all of them are done.
func (ev *evLoop) run(body func(p *Proc)) {
	m := ev.m
	ev.live = m.cfg.Procs
	// One seq serves every process. A coroutine's seq starts at its first
	// next(), which only dispatch below makes, right after it has set cur —
	// so the process a starting seq belongs to is m.procs[cur].
	cur := 0
	seq := func(yield func(struct{}) bool) {
		p := m.procs[cur]
		ev.yield[p.id] = yield
		ev.main(p, body)
	}
	for _, p := range m.procs {
		ev.state[p.id] = evReady
		ev.push(int32(p.id))
		ev.next[p.id], ev.stop[p.id] = iter.Pull(seq)
	}
	defer ev.stopAll()
	dispatches := 0
	for ev.live > 0 {
		if len(ev.heap) == 0 {
			// Quiescence: every live process is parked in m.waiting. Diagnose
			// (watchdog first, deadlock otherwise) and tear down.
			if m.failed == nil && !ev.quiesce() {
				continue // a defensive wake found runnable work
			}
			ev.abortWaiting()
			continue
		}
		pid := ev.pop()
		// The popped process's clock is the minimum over runnable work, so
		// it is the loop's current virtual time; report it periodically.
		if beat := m.cfg.Heartbeat; beat != nil {
			if dispatches++; dispatches >= heartbeatEvery {
				dispatches = 0
				beat(m.procs[pid].clock)
				// A Heartbeat may close Cancel itself; see it now rather
				// than whenever the watcher goroutine is next scheduled.
				select {
				case <-m.cfg.Cancel:
					m.canceled.Store(true)
				default:
				}
			}
		}
		ev.state[pid] = evRunning
		cur = int(pid)
		ev.next[pid]()
	}
}

// stopAll ends every coroutine that has not ended by itself. After a run that
// returned there is none and each stop is a no-op. It matters when a body
// left by runtime.Goexit: that unwinds run from inside next, and the other
// processes — parked, or not yet started — would otherwise sit in their
// switch forever.
func (ev *evLoop) stopAll() {
	for _, stop := range ev.stop {
		stop()
	}
}

// quiesce diagnoses a run where no process can step: every live process is
// parked in Recv and nothing pending can satisfy any of them. If faults made
// a parked receive provably unsatisfiable the failure is the watchdog's typed
// error naming it (scanning in process order, so the reported receive is
// deterministic); otherwise a DeadlockError listing every parked process and
// its mailbox. It returns false — without setting a failure — if some parked
// process turns out to be satisfiable after all; that cannot happen if the
// wake rules are complete, but handling it keeps the engine live rather than
// deadlocking the host on a missed wake.
func (ev *evLoop) quiesce() bool {
	m := ev.m
	for pid := 0; pid < m.cfg.Procs; pid++ {
		if ev.state[pid] == evWaiting && m.queue(pid, m.waiting[pid]).len() > 0 {
			ev.ready(pid)
			return false
		}
	}
	for pid := 0; pid < m.cfg.Procs; pid++ {
		if ev.state[pid] != evWaiting {
			continue
		}
		k := m.waiting[pid]
		if reason := m.recvUnsatisfiable(pid, k); reason != "" {
			m.failed = &RecvTimeoutError{Proc: pid, Src: k.src, Tag: k.tag,
				Clock: m.procs[pid].clock, Reason: reason}
			return true
		}
	}
	m.failed = m.deadlockError()
	return true
}

// abortWaiting unwinds every parked process after a failure: each is stopped,
// so its yield returns false, it panics errAborted up its own stack (running
// its defers), and stop returns when it has ended. Ready processes need no
// special handling — the loop keeps resuming them and they die at a later
// machine action (or finish cleanly).
func (ev *evLoop) abortWaiting() {
	for pid := range ev.state {
		if ev.state[pid] != evWaiting {
			continue
		}
		ev.state[pid] = evRunning
		ev.stop[pid]()
	}
}

// Exact wake-ups. Each is called by the running process at the moment it
// creates the awaited state; the predicates mirror the conditions the woken
// process will re-check, so a wake is never wasted.

// wakeRecv readies dst if it is parked receiving exactly k.
func (ev *evLoop) wakeRecv(dst int, k key) {
	if ev.state[dst] == evWaiting && ev.m.waiting[dst] == k {
		ev.ready(dst)
	}
}

// wakeLoss readies dst if it is parked receiving from src on any tag: a
// lost-forever message killed the src→dst link, so the watchdog must run at
// the receiver.
func (ev *evLoop) wakeLoss(dst, src int) {
	if ev.state[dst] == evWaiting && ev.m.waiting[dst].src == src {
		ev.ready(dst)
	}
}

// wait parks p until another process's step queues a message on k, or the
// run is torn down. Callers re-check their condition on return.
func (ev *evLoop) wait(p *Proc, k key) {
	ev.m.waiting[p.id] = k
	ev.state[p.id] = evWaiting
	ev.park(p)
}

// admit is the conservative admission rule of a multiplexed machine (mux.go):
// it parks p until it holds the minimal (clock, id) key among runnable
// processes. Processes parked in m.waiting are not runnable and do not gate
// admission. With one process per node there is nothing to wait for: every
// order the heap picks gives the same clocks.
func (p *Proc) admit() {
	if p.m.sched == nil {
		return
	}
	ev := p.m.ev
	for {
		if p.m.failed != nil {
			panic(errAborted)
		}
		if len(ev.heap) == 0 || !ev.less(ev.heap[0], int32(p.id)) {
			return
		}
		ev.state[p.id] = evReady
		ev.push(int32(p.id))
		ev.park(p)
	}
}
