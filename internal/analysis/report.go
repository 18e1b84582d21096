package analysis

import (
	"fmt"
	"strings"

	"procdecomp/internal/trace"
)

// WireCount is one transport event kind's total.
type WireCount struct {
	Kind  string
	Count int64
}

// wireCounts renders the dump's transport stream as a deterministic list,
// in WireKind declaration order.
func wireCounts(d *Dump) []WireCount {
	counts := map[trace.WireKind]int64{}
	for _, e := range d.Wire {
		counts[e.Kind]++
	}
	var out []WireCount
	for k := trace.WireXmit; k <= trace.WireLost; k++ {
		if c := counts[k]; c > 0 {
			out = append(out, WireCount{Kind: k.String(), Count: c})
		}
	}
	return out
}

// WhatIf is one replay scenario's prediction.
type WhatIf struct {
	Name string
	// Predicted is the replayed makespan under the scenario's costs.
	Predicted uint64
	// Speedup is measured/predicted (1.00 for the identity scenario).
	Speedup float64
}

// Report is the full analysis of one dump, serializable to deterministic
// JSON (slices only, ordered at construction — two identical runs produce
// byte-identical reports).
type Report struct {
	Procs       int
	Multiplexed bool `json:",omitempty"`
	Faulty      bool `json:",omitempty"`
	Makespan    uint64
	Messages    int64
	Values      int64
	Costs       Costs
	// EndProc is where the critical path ends; Segments its segment count.
	EndProc  int
	Segments int
	// Attribution partitions the makespan by cause; it sums to Makespan
	// exactly (verified before the report is built).
	Attribution Attribution
	Links       []LinkHotspot
	Tags        []TagHotspot
	// Wire summarizes the transport stream by event kind, in a fixed kind
	// order; empty for runs on the ideal network.
	Wire   []WireCount `json:",omitempty"`
	WhatIf []WhatIf
	// Path is the full critical path, populated only on request
	// (pdtrace -path); it can run to thousands of segments.
	Path []Segment `json:",omitempty"`
}

// Options tunes Analyze.
type Options struct {
	// Scenarios to replay; nil means DefaultScenarios.
	Scenarios []Scenario
	// TopLinks/TopTags cap the hotspot rankings (0 = keep all).
	TopLinks, TopTags int
	// IncludePath embeds the full segment list in the report.
	IncludePath bool
}

// Analyze runs the full pipeline — critical path, attribution, hotspots,
// what-if replays — verifying the exactness invariants as it goes. An
// analysis whose numbers do not reconcile returns an error, never a report.
func Analyze(d *Dump, opt Options) (*Report, error) {
	cp, err := d.CriticalPath()
	if err != nil {
		return nil, err
	}
	r := &Report{
		Procs:       d.Procs,
		Multiplexed: d.Placement != nil,
		Faulty:      d.Faulty,
		Makespan:    cp.Makespan,
		Messages:    d.Messages(),
		Values:      d.Values(),
		Costs:       d.Costs,
		EndProc:     cp.EndProc,
		Segments:    len(cp.Segments),
		Attribution: cp.Attr,
	}
	r.Links, r.Tags = d.Hotspots(cp)
	r.Wire = wireCounts(d)
	if opt.TopLinks > 0 && len(r.Links) > opt.TopLinks {
		r.Links = r.Links[:opt.TopLinks]
	}
	if opt.TopTags > 0 && len(r.Tags) > opt.TopTags {
		r.Tags = r.Tags[:opt.TopTags]
	}
	scenarios := opt.Scenarios
	if scenarios == nil {
		scenarios = DefaultScenarios()
	}
	for _, sc := range scenarios {
		pred, err := d.Predict(sc)
		if err != nil {
			return nil, fmt.Errorf("what-if %q: %w", sc.Name, err)
		}
		if isIdentity(sc) && pred != cp.Makespan {
			return nil, fmt.Errorf("analysis: identity replay predicts %d, run measured %d — the recorded DAG does not reproduce the run", pred, cp.Makespan)
		}
		w := WhatIf{Name: sc.Name, Predicted: pred}
		if pred > 0 {
			w.Speedup = float64(cp.Makespan) / float64(pred)
		}
		r.WhatIf = append(r.WhatIf, w)
	}
	if opt.IncludePath {
		r.Path = cp.Segments
	}
	return r, nil
}

func isIdentity(sc Scenario) bool {
	return sc.SendStartup == nil && sc.RecvStartup == nil && sc.PerValue == nil && sc.Latency == nil
}

// Format renders the report as the pdtrace text output.
func (r *Report) Format() string {
	var b strings.Builder
	mux := ""
	if r.Multiplexed {
		mux = ", multiplexed"
	}
	faulty := ""
	if r.Faulty {
		faulty = ", fault-injected"
	}
	fmt.Fprintf(&b, "run: %d procs%s%s, makespan %d cycles, %d messages (%d values)\n",
		r.Procs, mux, faulty, r.Makespan, r.Messages, r.Values)
	fmt.Fprintf(&b, "critical path: %d segments, ends on proc %d; length == makespan (verified)\n",
		r.Segments, r.EndProc)

	b.WriteString("\nmakespan attribution (cycles on the critical path)\n")
	a := r.Attribution
	row := func(name string, v uint64) {
		pct := 0.0
		if r.Makespan > 0 {
			pct = 100 * float64(v) / float64(r.Makespan)
		}
		fmt.Fprintf(&b, "  %-28s %12d  %5.1f%%\n", name, v, pct)
	}
	row("compute", a.Compute)
	row("send startup", a.SendStartup)
	row("recv startup", a.RecvStartup)
	row("per-value copy", a.PerValue)
	row("wire latency", a.Wire)
	row("fault delay", a.Fault)
	row("blocked (cpu/backpressure)", a.Blocked)
	row("total", a.Total())

	if len(r.Links) > 0 {
		b.WriteString("\nhotspot links (by critical-path wait cycles)\n")
		fmt.Fprintf(&b, "  %-10s %10s %10s %12s %10s\n", "link", "messages", "values", "crit cycles", "crit msgs")
		for _, l := range r.Links {
			fmt.Fprintf(&b, "  %-10s %10d %10d %12d %10d\n",
				fmt.Sprintf("%d->%d", l.Src, l.Dst), l.Messages, l.Values, l.CritCycles, l.CritMsgs)
		}
	}
	if len(r.Tags) > 0 {
		b.WriteString("\nhotspot tags (by critical-path cycles)\n")
		fmt.Fprintf(&b, "  %-10s %10s %10s %12s %10s\n", "tag", "messages", "values", "crit cycles", "crit msgs")
		for _, tg := range r.Tags {
			fmt.Fprintf(&b, "  %-10d %10d %10d %12d %10d\n",
				tg.Tag, tg.Messages, tg.Values, tg.CritCycles, tg.CritMsgs)
		}
	}

	if len(r.Wire) > 0 {
		b.WriteString("\ntransport events\n")
		for _, wc := range r.Wire {
			fmt.Fprintf(&b, "  %-10s %10d\n", wc.Kind, wc.Count)
		}
	}

	if len(r.WhatIf) > 0 {
		b.WriteString("\nwhat-if (recorded DAG replayed under altered costs)\n")
		fmt.Fprintf(&b, "  %-36s %12s %8s\n", "scenario", "predicted", "speedup")
		for _, w := range r.WhatIf {
			fmt.Fprintf(&b, "  %-36s %12d %7.2fx\n", w.Name, w.Predicted, w.Speedup)
		}
	}

	if len(r.Path) > 0 {
		b.WriteString("\ncritical path (time order)\n")
		for _, s := range r.Path {
			switch s.Kind {
			case "compute", "blocked":
				fmt.Fprintf(&b, "  [%d..%d) proc %d %s (%d cycles)\n", s.Start, s.End, s.Proc, s.Kind, s.Dur())
			case "wait":
				fmt.Fprintf(&b, "  [%d..%d) proc %d wait for msg %d<-%d tag %d (%d cycles: %d wire + %d fault)\n",
					s.Start, s.End, s.Proc, s.Seq, s.Peer, s.Tag, s.Dur(), s.Attr.Wire, s.Attr.Fault)
			default:
				fmt.Fprintf(&b, "  [%d..%d) proc %d %s msg %d peer %d tag %d (%d cycles)\n",
					s.Start, s.End, s.Proc, s.Kind, s.Seq, s.Peer, s.Tag, s.Dur())
			}
		}
	}
	return b.String()
}
