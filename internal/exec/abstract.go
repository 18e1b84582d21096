package exec

// Sink receives what an abstract run of one process charges and
// communicates. Procs, Ops, Mem and LoopStep have machine.Proc's meaning;
// Send and Recv carry the message's endpoint, tag and value count, and an
// error from either stops the walk.
type Sink interface {
	Procs() int
	Ops(n int64)
	Mem(n int64)
	LoopStep()
	Send(dst int, tag int64, values int) error
	Recv(src int, tag int64, values int) error
}

// Walk runs the program as process me without computing any data: the
// statements visited and the charges made are exactly those of a real run,
// delivered to sink. It returns an error when the program's control flow
// depends on a data value (or would fail at run time for a reason visible
// without data); such a program's cost is only known by running it.
func (l *Lowered) Walk(me int, sink Sink) error {
	return newStepper(l, me, abstract{sink}).run()
}

// abstract is the domain of Walk: it stores nothing, so every read is
// unknown and every write is dropped; only message shapes reach the Sink.
type abstract struct{ Sink }

func (abstract) undefined(*stepper, int32) (Value, bool) { return 0, false }
func (abstract) absent(error) (Value, bool)              { return 0, false }
func (abstract) stored(*stepper, *lvexpr) Value          { return 0 }
func (abstract) alloc(*stepper, *lstmt)                  {}
func (abstract) allocBuf(*stepper, *lstmt)               {}
func (abstract) defineScalar(*stepper, int32, Value)     {}
func (abstract) scalar(*stepper, int32) (Value, bool)    { return 0, false }
func (abstract) awrite(*stepper, *lstmt, Value)          {}
func (abstract) bufWrite(*stepper, *lstmt, Value)        {}
func (abstract) aread(*stepper, *lstmt) (Value, bool)    { return 0, false }
func (abstract) bufRead(*stepper, *lstmt) (Value, bool)  { return 0, false }

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

func (a abstract) sendBuf(st *stepper, buf int32, lo, hi int64, dst int, tag int64) {
	if hi < lo {
		failf("block send of %s[%d..%d]", st.low.bufs[buf], lo, hi)
	}
	if err := a.Send(dst, tag, int(hi-lo+1)); err != nil {
		fail(err)
	}
}

func (a abstract) recvBuf(st *stepper, buf int32, lo, hi int64, src int, tag int64) {
	if hi < lo {
		failf("block receive into %s[%d..%d]", st.low.bufs[buf], lo, hi)
	}
	if err := a.Recv(src, tag, int(hi-lo+1)); err != nil {
		fail(err)
	}
}
