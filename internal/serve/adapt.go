package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"

	"procdecomp/internal/adapt"
	"procdecomp/internal/durable"
)

// The serve side of the adaptation loop: how requests map onto the
// controller's scenarios and shapes, where completed /run requests are
// observed, how a preference reaches the evaluation pipeline, and the
// durable decision journal that lets a restarted server resume its learned
// preferences.

// scenarioKey names the adaptive unit: one program × entry × machine size.
// The built-in Gauss-Seidel program keys as "gs"; an inline source keys by a
// short content hash, so textually identical programs share a profile.
func scenarioKey(req Request) string {
	prog := "gs"
	if !req.GS {
		sum := sha256.Sum256([]byte(req.Source))
		prog = hex.EncodeToString(sum[:4])
	}
	return fmt.Sprintf("%s/%s/p%d", prog, req.Entry, req.Procs)
}

// shapeKey names the request shape inside a scenario: the pipeline it
// compiles under plus the size parameters it binds. A workload shift is, by
// definition, the dominant shape changing — in practice the Defines (problem
// size) moving.
func shapeKey(req Request) string {
	key := fmt.Sprintf("%s/b%d", req.Mode, req.Blk)
	if len(req.Defines) == 0 {
		return key
	}
	names := make([]string, 0, len(req.Defines))
	for k := range req.Defines {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		key += fmt.Sprintf(",%s=%d", k, req.Defines[k])
	}
	return key
}

// setMappingHeader exposes the adaptive decomposition a /run response was
// compiled with, so clients (and the load harness) can see a switch without
// parsing the body.
func setMappingHeader(w http.ResponseWriter, mapping string) {
	if mapping != "" {
		w.Header().Set("X-Adapt-Mapping", mapping)
	}
}

// preferredMapping is the controller's current preference for this request,
// resolved at admission (and at the cache fast path) so one request sees one
// consistent mapping. Only /run adapts: /search explores every mapping
// itself, and /compile and /trace must show the program as declared.
func (s *Server) preferredMapping(endpoint string, req Request) string {
	if s.adapt == nil || endpoint != "/run" {
		return ""
	}
	return s.adapt.Preferred(scenarioKey(req))
}

// adaptObserve feeds one completed /run into the workload profile — exactly
// one call per served request, whether the bytes came from the pool or the
// cache. The makespan is read back from the response body (the cache path
// has nothing else), so both paths observe identically.
func (s *Server) adaptObserve(endpoint string, req Request, body []byte) {
	if s.adapt == nil || endpoint != "/run" {
		return
	}
	var resp struct{ Makespan uint64 }
	if err := json.Unmarshal(body, &resp); err != nil {
		return
	}
	// A program with no resolvable dist declaration still profiles; a search
	// triggered for it settles "failed", deterministically.
	dist, _ := pickDist(req)
	s.adapt.Observe(adapt.Observation{
		Scenario: scenarioKey(req),
		Shape:    shapeKey(req),
		Makespan: resp.Makespan,
		Spec: adapt.SearchSpec{
			Source: source(req), Entry: req.Entry, Dist: dist,
			Procs: req.Procs, Mode: req.Mode, Blk: req.Blk, Defines: req.Defines,
		},
	})
}

func (s *Server) adaptStats() adapt.Stats {
	if s.adapt == nil {
		return adapt.Stats{}
	}
	return s.adapt.Stats()
}

// adaptMetric mirrors the controller's counters into the metric catalog. The
// controller keeps its own (adapt.Stats), and VerifyScrape checks the two.
func (s *Server) adaptMetric(kind, label string) {
	switch kind {
	case "observation":
		s.m.adaptObs.Inc()
	case "trigger":
		s.m.adaptTriggers.Inc(label)
	case "search":
		s.m.adaptSearches.Inc(label)
	case "switch":
		s.m.adaptSwitches.Inc()
	}
}

// persistDecision is Hooks.Persist: every settled decision lands in the
// in-memory list behind GET /adapt, the NDJSON stream behind
// GET /adapt/journal, and (when the server has a cache directory) the
// durable decision journal. Called from the controller's worker goroutine,
// in decision order — the order is part of the byte-determinism contract.
func (s *Server) persistDecision(d adapt.Decision) {
	line, err := json.Marshal(d)
	if err != nil {
		return
	}
	s.adaptMu.Lock()
	s.adaptDecisions = append(s.adaptDecisions, d)
	s.adaptDecLines = append(append(s.adaptDecLines, line...), '\n')
	s.adaptMu.Unlock()
	if s.adaptJournal != nil {
		if err := s.adaptJournal.Append(line); err != nil {
			s.m.journalErrors.Inc("decision")
			s.log.LogAttrs(context.Background(), slog.LevelWarn, "adapt decision not durable",
				slog.String("site", "decision"), slog.String("scenario", d.Scenario),
				slog.Uint64("seq", d.Seq), slog.String("error", err.Error()))
		}
	}
}

// AdaptResponse is GET /adapt's body: the controller's live view plus every
// decision this process has settled.
type AdaptResponse struct {
	Enabled   bool
	Status    adapt.Status
	Decisions []adapt.Decision `json:",omitempty"`
}

func (s *Server) handleAdapt(w http.ResponseWriter, r *http.Request) {
	var resp AdaptResponse
	if s.adapt != nil {
		resp.Enabled = true
		resp.Status = s.adapt.Snapshot()
		s.adaptMu.Lock()
		resp.Decisions = append([]adapt.Decision(nil), s.adaptDecisions...)
		s.adaptMu.Unlock()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// handleAdaptJournal serves this process's decisions as raw NDJSON — the
// byte stream two seeded runs are compared on. Only decisions settled by
// this process appear: restored state from a previous life shapes behavior
// but is not replayed as bytes.
func (s *Server) handleAdaptJournal(w http.ResponseWriter, r *http.Request) {
	s.adaptMu.Lock()
	body := append([]byte(nil), s.adaptDecLines...)
	s.adaptMu.Unlock()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Write(body)
}

// The decision journal: a durable.Log in the cache directory holding every
// settled decision, compacted to one folded "state" line per scenario.
// Decisions are rare (one per detected shift), so each is a batch of one:
// one write, one fsync.

const adaptJournalName = "adapt.journal"

// adaptStateRec is the folded form of a scenario's decision history — what
// a restarted controller actually needs. Seq carries the journal-wide
// maximum decision sequence so numbering resumes without gaps reversing.
type adaptStateRec struct {
	Op        string
	Scenario  string
	Preferred string `json:",omitempty"`
	TunedFor  string `json:",omitempty"`
	Decisions int64
	Seq       uint64 `json:",omitempty"`
}

// applyDecision folds one decision into a scenario's durable state: the
// mapping in force is always the decision's, and the tuning anchor moves on
// the outcomes that settle a shift ("switched" and "held" alike).
func applyDecision(st *adapt.State, d adapt.Decision) {
	st.Preferred = d.Mapping
	if d.Outcome == "switched" || d.Outcome == "held" {
		st.TunedFor = d.Shape
	}
	st.Decisions++
}

// decisionFold is the decision journal's folder: per-scenario state in
// first-seen order, plus the highest decision sequence.
type decisionFold struct {
	states map[string]*adapt.State
	order  []string
	maxSeq uint64
}

func newDecisionFold() *decisionFold { return &decisionFold{states: map[string]*adapt.State{}} }

func (f *decisionFold) state(key string) *adapt.State {
	st := f.states[key]
	if st == nil {
		st = &adapt.State{Scenario: key}
		f.states[key] = st
		f.order = append(f.order, key)
	}
	return st
}

// Accept folds one journal line — a folded state or a single decision — into
// its scenario. Anything else starts the torn tail.
func (f *decisionFold) Accept(line []byte) bool {
	var probe struct{ Op, Scenario string }
	if err := json.Unmarshal(line, &probe); err != nil || probe.Scenario == "" {
		return false
	}
	seq := uint64(0)
	if probe.Op == "state" {
		var rec adaptStateRec
		if err := json.Unmarshal(line, &rec); err != nil {
			return false
		}
		st := f.state(rec.Scenario)
		st.Preferred, st.TunedFor, st.Decisions = rec.Preferred, rec.TunedFor, rec.Decisions
		seq = rec.Seq
	} else {
		var d adapt.Decision
		if err := json.Unmarshal(line, &d); err != nil || d.Outcome == "" {
			return false
		}
		applyDecision(f.state(d.Scenario), d)
		seq = d.Seq
	}
	if seq > f.maxSeq {
		f.maxSeq = seq
	}
	return true
}

// Image renders the compacted journal: one state line per scenario, in
// first-seen order.
func (f *decisionFold) Image() ([]byte, error) {
	var buf bytes.Buffer
	for _, key := range f.order {
		st := f.states[key]
		rec := adaptStateRec{Op: "state", Scenario: key, Preferred: st.Preferred,
			TunedFor: st.TunedFor, Decisions: st.Decisions, Seq: f.maxSeq}
		b, err := json.Marshal(rec)
		if err != nil {
			return nil, err
		}
		buf.Write(append(b, '\n'))
	}
	return buf.Bytes(), nil
}

// openDecisionJournal recovers and opens the decision journal under dir,
// returning the restored per-scenario states in first-seen order plus the
// highest decision sequence.
func openDecisionJournal(fs durable.FS, dir string, opt durable.Options) (*durable.Log, []adapt.State, uint64, error) {
	l, f, err := durable.Open(fs, dir, adaptJournalName, opt, newDecisionFold)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("serve: decision journal: %w", err)
	}
	restored := make([]adapt.State, 0, len(f.order))
	for _, key := range f.order {
		restored = append(restored, *f.states[key])
	}
	return l, restored, f.maxSeq, nil
}
