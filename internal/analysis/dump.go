// Package analysis is the post-run performance analyzer of the reproduction:
// it consumes the event log a traced machine run produced (internal/trace)
// and explains where the makespan went. Three instruments build on one
// replayable dump of the run:
//
//   - CriticalPath extracts the dependency chain of compute spans and message
//     edges whose lengths sum exactly to the makespan, and attributes every
//     cycle of it to a cause (compute, send/recv startup, per-value copying,
//     wire latency, fault-retry delay, CPU blocking). The same
//     exactness discipline machine.VerifyTrace applies to the Breakdown is
//     applied here: an attribution that does not tile the makespan is an
//     error, never a report.
//   - Predict replays the recorded communication DAG under altered cost
//     parameters (SendStartup→0, Latency→0, PerValue→0, ...) to bound what a
//     given optimization could buy without rerunning the program — the
//     cost-model-driven discipline of the PGAS-compiler literature.
//   - Hotspots ranks links and tags by their critical-path occupancy, on top
//     of the log's send events.
//
// The Dump is what pdrun/pdbench write with -trace: a Chrome trace-event
// file whose top-level "pdtrace" key carries the events plus the machine
// calibration, so one file serves both Perfetto and the pdtrace CLI. Analyze's
// Report has two forms, the text of Format and its JSON encoding (pdtrace
// -json).
package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"procdecomp/internal/machine"
	"procdecomp/internal/trace"
)

// Version of the dump schema embedded in trace files.
const Version = 1

// Costs is the serializable slice of machine.Config the analyzer needs: the
// cost calibration that shaped the recorded spans, used to decompose message
// overhead into startup vs. per-value parts and to replay what-if scenarios.
type Costs struct {
	OpCost      uint64
	MemCost     uint64
	LoopCost    uint64
	SendStartup uint64
	RecvStartup uint64
	PerValue    uint64
	Latency     uint64
	ValueBytes  int
}

// CostsOf extracts the calibration from a machine configuration.
func CostsOf(cfg machine.Config) Costs {
	return Costs{
		OpCost:      cfg.OpCost,
		MemCost:     cfg.MemCost,
		LoopCost:    cfg.LoopCost,
		SendStartup: cfg.SendStartup,
		RecvStartup: cfg.RecvStartup,
		PerValue:    cfg.PerValue,
		Latency:     cfg.Latency,
		ValueBytes:  cfg.ValueBytes,
	}
}

// Dump is a complete, replayable record of one traced run: the machine
// calibration, the placement, every process span, and the transport's wire
// events. It is everything the analyzer needs — no re-execution required.
type Dump struct {
	Version   int
	Procs     int
	Placement []int `json:",omitempty"`
	Faulty    bool  `json:",omitempty"` // the run injected faults
	Costs     Costs
	Events    [][]trace.Event
	Wire      []trace.WireEvent `json:",omitempty"`
}

// NewDump captures a finished traced run. Call only after machine.Run has
// returned (the log is not readable before that). The wire stream is copied
// and sorted into a canonical order — concurrent senders append to it in
// scheduler order, which would otherwise make two identical runs serialize
// differently.
func NewDump(cfg machine.Config, log *trace.Log) *Dump {
	wire := append([]trace.WireEvent(nil), log.WireEvents()...)
	sort.SliceStable(wire, func(i, j int) bool {
		a, b := wire[i], wire[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.MsgSeq != b.MsgSeq {
			return a.MsgSeq < b.MsgSeq
		}
		if a.Attempt != b.Attempt {
			return a.Attempt < b.Attempt
		}
		return a.Kind < b.Kind
	})
	d := &Dump{
		Version: Version,
		Procs:   log.Procs(),
		Faulty:  cfg.Faults != nil,
		Costs:   CostsOf(cfg),
		Events:  make([][]trace.Event, log.Procs()),
		Wire:    wire,
	}
	if cfg.Placement != nil {
		d.Placement = append([]int(nil), cfg.Placement...)
	}
	for p := range d.Events {
		d.Events[p] = log.Events(p)
	}
	return d
}

// Log revives the dump as a trace.Log, giving access to the log's pattern
// analyses (MessageMatrix) and the Chrome exporter.
func (d *Dump) Log() *trace.Log {
	return trace.Rebuild(d.Placement, d.Events, d.Wire)
}

// Makespan is the maximum final clock over all processes — every process's
// events tile [0, clock), so it is the last event's end stamp.
func (d *Dump) Makespan() uint64 {
	var max uint64
	for _, evs := range d.Events {
		if n := len(evs); n > 0 && evs[n-1].End > max {
			max = evs[n-1].End
		}
	}
	return max
}

// Messages counts the application-level messages in the dump.
func (d *Dump) Messages() int64 {
	var n int64
	for _, evs := range d.Events {
		for _, e := range evs {
			if e.Kind == trace.KindSend {
				n++
			}
		}
	}
	return n
}

// Values counts the values transferred.
func (d *Dump) Values() int64 {
	var n int64
	for _, evs := range d.Events {
		for _, e := range evs {
			if e.Kind == trace.KindSend {
				n += int64(e.Values)
			}
		}
	}
	return n
}

// WriteTrace writes the run as a Chrome trace-event file with the dump
// embedded under the top-level "pdtrace" key: chrome://tracing and Perfetto
// render the timeline, pdtrace reads the same file back with ReadDump.
func (d *Dump) WriteTrace(w io.Writer) error {
	return d.Log().WriteChromeTraceWith(w, d)
}

// ReadDump parses a trace file written by WriteTrace, recovering the
// embedded dump.
func ReadDump(r io.Reader) (*Dump, error) {
	var file struct {
		PDTrace *Dump `json:"pdtrace"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&file); err != nil {
		return nil, fmt.Errorf("analysis: not a pdtrace file: %w", err)
	}
	d := file.PDTrace
	if d == nil {
		return nil, fmt.Errorf("analysis: trace file has no \"pdtrace\" payload (written by an older -trace? re-record with this version)")
	}
	if d.Version != Version {
		return nil, fmt.Errorf("analysis: dump version %d, this analyzer reads version %d", d.Version, Version)
	}
	if len(d.Events) != d.Procs {
		return nil, fmt.Errorf("analysis: dump has %d event streams for %d processes", len(d.Events), d.Procs)
	}
	return d, nil
}
