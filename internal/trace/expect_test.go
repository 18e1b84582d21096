package trace_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"procdecomp/internal/gen"
	"procdecomp/internal/trace"
)

// perturbations are the timelines an expecting log is handed: the first is
// the run's own, each other a copy of it changed at one index per process
// (a process without the kind of event to change keeps its own).
var perturbations = []struct {
	name string
	f    func(evs []trace.Event) []trace.Event
}{
	{"its own events", func(evs []trace.Event) []trace.Event { return evs }},
	{"the last compute span ends a cycle later", func(evs []trace.Event) []trace.Event {
		return change(evs, lastOf(evs, trace.KindCompute), func(e *trace.Event) { e.End++ })
	}},
	{"the first compute span ends a cycle sooner", func(evs []trace.Event) []trace.Event {
		return change(evs, firstOf(evs, trace.KindCompute), func(e *trace.Event) { e.End-- })
	}},
	{"a send's tag is one more", func(evs []trace.Event) []trace.Event {
		return change(evs, firstOf(evs, trace.KindSend), func(e *trace.Event) { e.Tag++ })
	}},
	{"a receive's arrival is a cycle later", func(evs []trace.Event) []trace.Event {
		return change(evs, firstOf(evs, trace.KindRecv, trace.KindIdle), func(e *trace.Event) { e.Arrive++ })
	}},
	{"the last event is missing", func(evs []trace.Event) []trace.Event {
		return evs[:max(len(evs)-1, 0)]
	}},
	{"one event more", func(evs []trace.Event) []trace.Event {
		end := uint64(0)
		if len(evs) > 0 {
			end = evs[len(evs)-1].End
		}
		return append(slices.Clip(evs), trace.Event{Kind: trace.KindIdle, Start: end, End: end + 1, Peer: -1})
	}},
	{"nothing", func([]trace.Event) []trace.Event { return nil }},
}

func firstOf(evs []trace.Event, kinds ...trace.Kind) int {
	return slices.IndexFunc(evs, func(e trace.Event) bool { return slices.Contains(kinds, e.Kind) })
}

func lastOf(evs []trace.Event, kinds ...trace.Kind) int {
	for i := len(evs) - 1; i >= 0; i-- {
		if slices.Contains(kinds, evs[i].Kind) {
			return i
		}
	}
	return -1
}

// change returns a copy of evs with f applied to event i, or evs itself when
// i < 0.
func change(evs []trace.Event, i int, f func(*trace.Event)) []trace.Event {
	if i < 0 {
		return evs
	}
	evs = slices.Clone(evs)
	f(&evs[i])
	return evs
}

// TestExpectingLogIsInvisible runs every distinct image of the corpus twice,
// traced by a storing log and then by an expecting one. The k-th image's log
// expects the stored timeline as the k-th perturbation (taken in turn) makes
// it: every process's Events must be the storing run's and the run's verdict
// (its VerifyTrace included) the same, and a log that expects its own run's
// timeline stores no event. The corpus's multiplexed cases put blocked spans
// in the timelines.
func TestExpectingLogIsInvisible(t *testing.T) {
	corpus, err := gen.CompiledCorpus()
	if err != nil {
		t.Fatal(err)
	}
	images := 0
	for _, c := range corpus {
		for i, img := range c.Images {
			if img == nil || c.First[i] != i {
				continue
			}
			k := images % len(perturbations)
			pt := perturbations[k]
			images++
			cfg := c.Config()
			stored := trace.New()
			cfg.Tracer = stored
			_, runErr := img.Run(context.Background(), cfg, c.Inputs)
			want := make([][]trace.Event, stored.Procs())
			for p := range want {
				want[p] = pt.f(stored.Events(p))
			}
			expecting := trace.New()
			expecting.Expect(want)
			cfg.Tracer = expecting
			_, err := img.Run(context.Background(), cfg, c.Inputs)
			at := fmt.Sprintf("%s S=%d %s, expecting %s", c.Name, c.Procs, gen.Label(c.Points[i]), pt.name)
			if fmt.Sprint(err) != fmt.Sprint(runErr) {
				t.Fatalf("%s: the run gives %v, storing it gave %v", at, err, runErr)
			}
			for p := range want {
				got, ref := expecting.Events(p), stored.Events(p)
				if !slices.Equal(got, ref) {
					t.Fatalf("%s: process %d shows %d events, a storing log %d; first difference at %d",
						at, p, len(got), len(ref), firstDifference(got, ref))
				}
				if k == 0 && len(got) > 0 && &got[0] != &want[p][0] {
					t.Fatalf("%s: process %d stores its %d events beside the ones it expected", at, p, len(got))
				}
			}
		}
	}
	if images < 2*len(perturbations) {
		t.Fatalf("the corpus has %d distinct images; each perturbation wants two at least", images)
	}
}

func firstDifference(a, b []trace.Event) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
