package autotune

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Rendering of search reports. Both forms — text and JSON — are
// deterministic functions of the Report value: no timestamps, no map
// iteration, so equal searches emit identical bytes.

// Format renders the report as a text table.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pdmap: %s on %d processors", r.Workload, r.Procs)
	if len(r.Defines) > 0 {
		keys := make([]string, 0, len(r.Defines))
		for k := range r.Defines {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s=%d", k, r.Defines[k])
		}
		fmt.Fprintf(&b, " (%s)", strings.Join(parts, ", "))
	}
	fmt.Fprintf(&b, "\nsearched %d candidate configurations\n", r.Enumerated)
	fmt.Fprintf(&b, "baseline (%s): measured %d cycles, predicted %d, %d messages (%d values)\n",
		baselineName(r.Baseline), r.Baseline.Measured, r.Baseline.Predicted,
		r.Baseline.Messages, r.Baseline.Values)

	fmt.Fprintf(&b, "\n%-32s %-10s %12s %12s %12s %10s %8s\n",
		"candidate", "status", "static", "predicted", "measured", "messages", "values")
	for _, res := range r.Results {
		mark := " "
		switch res.Candidate.Key() {
		case r.Winner:
			mark = "*"
		case r.Hand:
			mark = "h"
		}
		fmt.Fprintf(&b, "%s%-31s %-10s %12s %12s %12s %10s %8s\n",
			mark, res.Candidate.Key(), string(res.Status),
			orDash(res.Static), orDash(res.Predicted), orDash(res.Measured),
			orDashI(res.Messages), orDashI(res.Values))
		if res.Note != "" {
			fmt.Fprintf(&b, "    %s\n", res.Note)
		}
	}

	fmt.Fprintf(&b, "\nwinner: %s (* above), measured %d cycles\n", r.Winner, r.winnerMeasured())
	fmt.Fprintf(&b, "hand-chosen reference: %s (h above), measured %d cycles\n", r.Hand, r.handMeasured())
	fmt.Fprintf(&b, "regret of the hand choice: %d cycles\n", r.Regret)

	b.WriteString("\nwinner makespan attribution\n")
	total := r.Attr.Total()
	row := func(name string, v uint64) {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(v) / float64(total)
		}
		fmt.Fprintf(&b, "  %-16s %12d  %5.1f%%\n", name, v, pct)
	}
	row("compute", r.Attr.Compute)
	row("send startup", r.Attr.SendStartup)
	row("recv startup", r.Attr.RecvStartup)
	row("per-value copy", r.Attr.PerValue)
	row("wire latency", r.Attr.Wire)
	return b.String()
}

func (r *Report) winnerMeasured() uint64 { return r.measuredOf(r.Winner) }
func (r *Report) handMeasured() uint64   { return r.measuredOf(r.Hand) }

func (r *Report) measuredOf(key string) uint64 {
	for _, res := range r.Results {
		if res.Candidate.Key() == key {
			return res.Measured
		}
	}
	return 0
}

func baselineName(b Baseline) string {
	if b.Blk > 0 {
		return fmt.Sprintf("%s, blk %d", b.Mode, b.Blk)
	}
	return b.Mode
}

func orDash(v uint64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%d", v)
}

func orDashI(v int64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%d", v)
}

// MarshalJSON renders a candidate as its canonical key: the report's JSON
// names configurations the same way its text does.
func (c Candidate) MarshalJSON() ([]byte, error) { return json.Marshal(c.Key()) }

// WriteJSON emits the report as indented JSON, newline-terminated.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
