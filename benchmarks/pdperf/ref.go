package main

import (
	"sync"
	"time"
)

// The reference kernel: a fixed, repo-independent piece of work sampled next
// to the work it corrects. Wall-clock on this box drifts with the state of
// the memory system (README.md, "Reference-kernel study"), for seconds to
// minutes at a time, so no statistic taken inside one run escapes it; what
// does is dividing by how long a fixed memory-bound kernel took at the same
// moment. The kernel streams once through a preallocated 16 MB []float64
// (bandwidth; it also empties the caches, so what the op left there cannot
// matter) and then chases a random cycle through a 1 MB []int32 from cold
// (latency). Both slices are pointer-free, so the collector never scans
// them, and the kernel allocates nothing: a change's heap or GC behaviour
// cannot move it.
const (
	refStreamWords = 2 << 20   // × 8 bytes = 16 MB, four times the L2
	refChaseWords  = 256 << 10 // × 4 bytes = 1 MB
	refChaseSteps  = 400_000
	// refNominalMS is the kernel's quiet-period median on the box the
	// baseline was taken on, so a quiet run reads in true milliseconds.
	// Frozen, like the sizes above: changing any of them invalidates every
	// committed baseline.
	refNominalMS = 9.5
	// refWindow is how many samples either side of a round are pooled into
	// the round's reference (their median): one sample is noisy, and the
	// states being corrected last much longer than a few rounds.
	refWindow = 3
)

type refKernel struct {
	stream []float64
	cycle  []int32

	mu      sync.Mutex
	samples []float64
	// streamMS and chaseMS keep the two halves of every sample apart, for
	// the log: the study in README.md weighs them against each other.
	streamMS, chaseMS []float64
}

// sinks keep the compiler from discarding the kernel's loops.
var (
	sinkF float64
	sinkI int32
)

func newRefKernel() *refKernel {
	r := &refKernel{stream: make([]float64, refStreamWords), cycle: make([]int32, refChaseWords)}
	for i := range r.stream {
		r.stream[i] = float64(i)
	}
	// Sattolo's algorithm with a fixed xorshift stream: one cycle through
	// every word, identical in every run.
	for i := range r.cycle {
		r.cycle[i] = int32(i)
	}
	x := uint64(88172645463325252)
	for i := len(r.cycle) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		r.cycle[i], r.cycle[j] = r.cycle[j], r.cycle[i]
	}
	return r
}

// sample runs the kernel once and returns its wall time in milliseconds.
func (r *refKernel) sample() float64 {
	start := time.Now()
	s := 0.0
	for _, v := range r.stream {
		s += v
	}
	mid := time.Now()
	p := int32(0)
	for i := 0; i < refChaseSteps; i++ {
		p = r.cycle[p]
	}
	end := time.Now()
	sinkF, sinkI = s, p
	d := float64(end.Sub(start)) / float64(time.Millisecond)
	r.mu.Lock()
	r.samples = append(r.samples, d)
	r.streamMS = append(r.streamMS, float64(mid.Sub(start))/float64(time.Millisecond))
	r.chaseMS = append(r.chaseMS, float64(end.Sub(mid))/float64(time.Millisecond))
	r.mu.Unlock()
	return d
}

// all returns every sample taken so far.
func (r *refKernel) all() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.samples...)
}

// windowed returns, for each of the len(samples)-1 rounds bracketed by
// consecutive samples, the median of the samples within refWindow of it.
func windowed(samples []float64) []float64 {
	refs := make([]float64, len(samples)-1)
	for r := range refs {
		lo, hi := max(0, r+1-refWindow), min(len(samples), r+1+refWindow)
		refs[r] = median(samples[lo:hi])
	}
	return refs
}

// A chunker corrects a stretch of set-up work: the work runs in pieces with
// a reference sample between them, and the whole stretch — well under the
// time a state of the box lasts — is scaled by the samples' median.
type chunker struct {
	ref     *refKernel
	samples []float64
	rawS    float64
}

func newChunker(ref *refKernel) *chunker { return &chunker{ref: ref, samples: []float64{ref.sample()}} }

// do runs one piece of set-up work and accounts its time.
func (c *chunker) do(f func() error) error {
	start := time.Now()
	err := f()
	c.rawS += time.Since(start).Seconds()
	c.samples = append(c.samples, c.ref.sample())
	return err
}

// norm is the corrected set-up time so far.
func (c *chunker) norm() float64 { return c.rawS * refNominalMS / median(c.samples) }
