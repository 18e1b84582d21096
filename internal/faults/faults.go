// Package faults defines deterministic, seed-driven fault schedules for the
// simulated multicomputer. The paper's machine model (§2.2) assumes a
// perfectly reliable in-order network; attaching a Schedule to
// machine.Config.Faults replaces that ideal fabric with one that can drop,
// duplicate, or delay/jitter individual transmission attempts and lose their
// acknowledgements. The machine's reliable transport retries over the faulty
// fabric until delivery succeeds, so programs still compute the same values —
// only virtual time (and the event trace) shows the storm.
//
// Determinism is the design constraint: the simulated machine runs its
// processes as real goroutines, so any fault decision that depended on
// wall-clock interleaving would make runs irreproducible. A Schedule
// therefore carries no mutable PRNG state. Every decision is a pure hash of
// (Seed, link, sequence number, attempt number, decision stream): the fate of
// the k-th transmission attempt of the n-th message on link src→dst is fixed
// the moment the Schedule is created, whatever order the goroutines reach it
// in. Two runs with the same seed see byte-for-byte the same faults.
package faults

// Schedule is one deterministic fault scenario. The zero value injects
// nothing; probabilities are in [0, 1] and evaluated independently per
// transmission attempt.
type Schedule struct {
	// Seed selects the scenario: same seed, same faults, always.
	Seed uint64

	// Drop is the probability that a data transmission attempt is dropped.
	Drop float64
	// Dup is the probability that a delivered attempt is duplicated by the
	// network (the extra copy is suppressed by the receiver's transport and
	// surfaces only in the wire trace and the Stats.Duplicates counter).
	Dup float64
	// AckDrop is the probability that the acknowledgement of a delivered
	// attempt is dropped on the reverse link, forcing a retransmission of
	// data the receiver already has — the classic duplicate-generation path.
	AckDrop float64
	// Delay is the probability that a delivered attempt is jittered.
	Delay float64
	// MaxJitter is the largest extra wire latency, in cycles, a jittered
	// attempt can incur (uniform in [1, MaxJitter]). Jitter reorders
	// arrivals; the transport's in-order release restores delivery order.
	MaxJitter uint64
}

// Chaos is a convenience scenario: rate controls message drops, with
// duplication and ack loss at half the rate and jitter at the full rate.
// This is what the CLIs' -faults flag constructs.
func Chaos(seed uint64, rate float64) *Schedule {
	return &Schedule{
		Seed:      seed,
		Drop:      rate,
		Dup:       rate / 2,
		AckDrop:   rate / 2,
		Delay:     rate,
		MaxJitter: 200,
	}
}

// Outcome is the fate of one data transmission attempt.
type Outcome struct {
	// Drop: the attempt never arrives; the sender's retry timer will fire.
	Drop bool
	// Jitter is extra wire latency on top of the machine's Latency.
	Jitter uint64
	// Dup: the network delivers a second copy of the attempt.
	Dup bool
	// AckDrop: the data arrived but its acknowledgement was lost; the
	// sender retransmits and the receiver sees a duplicate.
	AckDrop bool
}

// Decision streams keep the independent probabilities independent: each
// (stream, link, seq, attempt) tuple hashes to its own uniform variate.
const (
	streamDrop uint64 = iota + 1
	streamDup
	streamAckDrop
	streamDelay
	streamJitter
)

// splitmix64's finalizer: a full-avalanche 64-bit mixer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// roll returns a uniform variate in [0, 1) that is a pure function of the
// schedule seed and the decision coordinates.
func (s *Schedule) roll(stream uint64, src, dst int, seq uint64, attempt int) float64 {
	h := s.Seed
	h = mix(h ^ stream)
	h = mix(h ^ uint64(uint32(src)) ^ uint64(uint32(dst))<<32)
	h = mix(h ^ seq)
	h = mix(h ^ uint64(attempt))
	return float64(h>>11) / float64(uint64(1)<<53)
}

// Attempt decides the fate of transmission attempt number attempt (1-based)
// of message seq on link src→dst. The result is deterministic: it depends
// only on the schedule and the arguments, never on call order.
func (s *Schedule) Attempt(src, dst int, seq uint64, attempt int) Outcome {
	var o Outcome
	if s.roll(streamDrop, src, dst, seq, attempt) < s.Drop {
		o.Drop = true
		return o
	}
	if s.Delay > 0 && s.MaxJitter > 0 && s.roll(streamDelay, src, dst, seq, attempt) < s.Delay {
		o.Jitter = 1 + uint64(s.roll(streamJitter, src, dst, seq, attempt)*float64(s.MaxJitter))
	}
	if s.roll(streamDup, src, dst, seq, attempt) < s.Dup {
		o.Dup = true
	}
	if s.roll(streamAckDrop, src, dst, seq, attempt) < s.AckDrop {
		o.AckDrop = true
	}
	return o
}

// Retry returns the transport's retransmission parameters: rto is the
// initial timeout given the machine's wire latency (doubled per retry), past
// one round trip plus slack so that a fault-free ack beats the timer, and max
// is the attempt cap after which a message is lost forever and its link is
// declared dead. With a 10% drop rate a message's loss odds are ~1e-16, so
// chaos runs still terminate.
func Retry(latency uint64) (rto uint64, max int) {
	return 4*latency + 16, 16
}
