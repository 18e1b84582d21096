package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one entry of the Chrome trace-event format's JSON array
// (the "Trace Event Format" consumed by chrome://tracing and Perfetto).
// Timestamps are nominally microseconds; we write virtual cycles directly —
// the viewer's absolute units are wrong but every relative length is exact.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// networkPid groups the transport's wire events into their own Chrome
// "process", away from the node/processor tracks.
const networkPid = 1 << 20

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	// PDTrace carries an arbitrary machine-readable payload alongside the
	// viewer events (the analysis layer embeds its replayable dump here).
	// Chrome and Perfetto ignore unknown top-level keys, so one file serves
	// both the timeline viewer and pdtrace.
	PDTrace any `json:"pdtrace,omitempty"`
}

// WriteChromeTrace writes the log in Chrome trace-event JSON. Each process is
// one track (a Chrome "thread"); under Placement the tracks group under their
// physical node (a Chrome "process"), so the viewer shows co-residents
// interleaving on the node's CPU. Open the file at chrome://tracing or
// https://ui.perfetto.dev.
func (l *Log) WriteChromeTrace(w io.Writer) error {
	return l.WriteChromeTraceWith(w, nil)
}

// WriteChromeTraceWith is WriteChromeTrace with an extra payload embedded
// under the file's top-level "pdtrace" key, which trace viewers ignore.
func (l *Log) WriteChromeTraceWith(w io.Writer, payload any) error {
	var events []chromeEvent

	// Name the tracks: one "process" per node (or a single "processors"
	// group for the direct model), one "thread" per simulated process.
	if l.Multiplexed() {
		seen := map[int]bool{}
		for p := range l.events {
			n := l.Node(p)
			if !seen[n] {
				seen[n] = true
				events = append(events, chromeEvent{
					Name: "process_name", Ph: "M", Pid: n,
					Args: map[string]any{"name": fmt.Sprintf("node %d", n)},
				})
			}
		}
	} else {
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: 0,
			Args: map[string]any{"name": "processors"},
		})
	}
	for p := range l.events {
		pid := 0
		if l.Multiplexed() {
			pid = l.Node(p)
		}
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: p,
			Args: map[string]any{"name": fmt.Sprintf("proc %d", p)},
		})
	}

	for p := range l.events {
		pid := 0
		if l.Multiplexed() {
			pid = l.Node(p)
		}
		for _, e := range l.Events(p) {
			ce := chromeEvent{
				Name: e.Kind.String(), Cat: e.Kind.String(), Ph: "X",
				Ts: e.Start, Dur: e.Dur(), Pid: pid, Tid: p,
			}
			switch e.Kind {
			case KindSend:
				ce.Args = map[string]any{"dst": e.Peer, "tag": e.Tag, "values": e.Values, "msg": e.Seq}
			case KindRecv:
				ce.Args = map[string]any{"src": e.Peer, "tag": e.Tag, "values": e.Values, "msg": e.Seq}
			case KindIdle:
				ce.Args = map[string]any{"src": e.Peer, "tag": e.Tag, "msg": e.Seq}
			}
			events = append(events, ce)
		}
	}

	// Transport activity (retries, drops, duplicate suppression) renders as
	// instant events on a "network" process, one track per sending process,
	// so a chaos run shows its fault storm under the processor timeline.
	if wire := l.WireEvents(); len(wire) > 0 {
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: networkPid,
			Args: map[string]any{"name": "network"},
		})
		seen := map[int]bool{}
		for _, e := range wire {
			if !seen[e.Src] {
				seen[e.Src] = true
				events = append(events, chromeEvent{
					Name: "thread_name", Ph: "M", Pid: networkPid, Tid: e.Src,
					Args: map[string]any{"name": fmt.Sprintf("links from proc %d", e.Src)},
				})
			}
			events = append(events, chromeEvent{
				Name: e.Kind.String(), Cat: "wire", Ph: "i", S: "t",
				Ts: e.Time, Pid: networkPid, Tid: e.Src,
				Args: map[string]any{
					"src": e.Src, "dst": e.Dst, "tag": e.Tag,
					"seq": e.Seq, "attempt": e.Attempt, "values": e.Values,
					"msg": e.MsgSeq,
				},
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ns", PDTrace: payload})
}
