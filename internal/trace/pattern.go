package trace

// Communication-pattern analysis over the event log, in the spirit of the
// per-message communication profiles PGAS-compiler work uses to drive
// optimization decisions: who talks to whom (MessageMatrix). It is derived
// purely from send events, so it agrees with the machine's Messages counter
// by construction.

// MessageMatrix returns per-(src,dst) message counts: m[src][dst] is the
// number of messages src sent to dst.
func (l *Log) MessageMatrix() [][]int64 {
	n := len(l.events)
	m := make([][]int64, n)
	for i := range m {
		m[i] = make([]int64, n)
	}
	for src := range l.events {
		for _, e := range l.Events(src) {
			if e.Kind == KindSend {
				m[src][e.Peer]++
			}
		}
	}
	return m
}

// Messages is the total message count recorded in the log.
func (l *Log) Messages() int64 {
	var n int64
	for p := range l.events {
		for _, e := range l.Events(p) {
			if e.Kind == KindSend {
				n++
			}
		}
	}
	return n
}

// BusiestLink returns the (src,dst) pair exchanging the most messages and
// that count; ok is false when no messages were sent.
func (l *Log) BusiestLink() (src, dst int, count int64, ok bool) {
	m := l.MessageMatrix()
	for s := range m {
		for d, c := range m[s] {
			if c > count {
				src, dst, count, ok = s, d, c, true
			}
		}
	}
	return src, dst, count, ok
}
