package exec

// Sink receives what an abstract run of one process charges and
// communicates. Procs, Ops, Mem and LoopStep have machine.Proc's meaning;
// LoopSteps(n) stands for n calls of LoopStep. Charges are additive: between
// two messages a walk may deliver a run of them in any grouping, as one call
// per kind or as LoopSteps, so a Sink must depend only on their sums. Send and Recv carry the message's
// endpoint, tag and value count, and an error from either stops the walk.
type Sink interface {
	Procs() int
	Ops(n int64)
	Mem(n int64)
	LoopStep()
	LoopSteps(n int64)
	Send(dst int, tag int64, values int) error
	Recv(src int, tag int64, values int) error
}

// Walk runs the program as process me without computing any data: the
// statements visited and the charges made are exactly those of a real run,
// delivered to sink. It returns an error when the program's control flow
// depends on a data value (or would fail at run time for a reason visible
// without data); such a program's cost is only known by running it.
func (l *Lowered) Walk(me int, sink Sink) error {
	ts := tapePool.Get().(*tapes)
	err := newStepper(l, me, abstract{sink, ts}).run()
	tapePool.Put(ts)
	return err
}

// abstract is the domain of Walk: it stores nothing, so every read is
// unknown and every write is dropped; only message shapes reach the Sink.
// It steps a keyed loop's first iteration of each key vector into one of
// tapes and plays the rest (keyed.go).
type abstract struct {
	Sink
	tapes *tapes
}

func (abstract) undefined(*stepper, int32) (Value, bool)   { return 0, false }
func (abstract) absent(error) (Value, bool)                { return 0, false }
func (abstract) stored(*stepper, *lvexpr) Value            { return 0 }
func (abstract) alloc(*stepper, *lstmt)                    {}
func (abstract) allocBuf(*stepper, int32, int64)           {}
func (abstract) defineScalar(*stepper, int32, Value, bool) {}
func (abstract) scalar(*stepper, int32) (Value, bool)      { return 0, false }
func (abstract) awrite(*stepper, *lstmt, Value)            {}
func (abstract) bufWrite(*stepper, *lstmt, Value)          {}
func (abstract) aread(*stepper, *lstmt) (Value, bool)      { return 0, false }
func (abstract) bufRead(*stepper, *lstmt) (Value, bool)    { return 0, false }

func (a abstract) send(dst int, tag int64, _ Value) {
	if err := a.Send(dst, tag, 1); err != nil {
		fail(err)
	}
}

func (a abstract) recv(src int, tag int64) (Value, bool) {
	if err := a.Recv(src, tag, 1); err != nil {
		fail(err)
	}
	return 0, false
}

func (a abstract) sendBuf(_ *stepper, _ int32, lo, hi int64, dst int, tag int64) {
	if err := a.Send(dst, tag, int(hi-lo+1)); err != nil {
		fail(err)
	}
}

func (a abstract) recvBuf(_ *stepper, _ int32, lo, hi int64, src int, tag int64) {
	if err := a.Recv(src, tag, int(hi-lo+1)); err != nil {
		fail(err)
	}
}
