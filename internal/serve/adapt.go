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
	"os"
	"path/filepath"
	"sort"
	"sync"

	"procdecomp/internal/adapt"
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
	dist, _ := pickDist(source(req), req.Dist)
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

// adaptMetric mirrors the controller's counters into the metric catalog —
// the Hooks.Metric side of the double-entry bookkeeping VerifyScrape checks.
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
	line = append(line, '\n')
	s.adaptMu.Lock()
	s.adaptDecisions = append(s.adaptDecisions, d)
	s.adaptDecLines = append(s.adaptDecLines, line...)
	s.adaptMu.Unlock()
	if err := s.adaptJournal.append(d, line); err != nil {
		s.log.LogAttrs(context.Background(), slog.LevelWarn, "adapt decision not durable",
			slog.String("scenario", d.Scenario), slog.Uint64("seq", d.Seq), slog.String("err", err.Error()))
	}
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "adapt decision",
		slog.String("scenario", d.Scenario), slog.String("shape", d.Shape),
		slog.String("outcome", d.Outcome), slog.String("mapping", d.Mapping))
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

// The decision journal: an append-only NDJSON file in the cache directory
// holding every settled decision, compacted — at open and at the runtime
// append threshold — to one folded "state" line per scenario. Decisions are
// rare (one per detected shift), so each append is written and fsynced
// immediately rather than group-committed.

const (
	adaptJournalName     = "adapt.journal"
	adaptJournalTornName = "adapt.journal.torn"
)

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

type decisionJournal struct {
	path string
	dir  string
	// compacted records whether open found anything to rewrite.
	compacted    bool
	compactEvery int
	// onCompact observes each runtime threshold fold. Set before traffic.
	onCompact func()

	mu       sync.Mutex
	f        *os.File
	dead     bool
	appended int
	// The folded view, maintained incrementally so a threshold compaction
	// never re-reads the file.
	states map[string]*adapt.State
	order  []string
	maxSeq uint64
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

// parseDecisionJournal reads the journal's valid prefix into per-scenario
// state, returning scenarios in first-seen order, the highest decision
// sequence, the valid byte prefix, and any torn tail.
func parseDecisionJournal(path string) (states map[string]*adapt.State, order []string, maxSeq uint64, valid, torn []byte, err error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return map[string]*adapt.State{}, nil, 0, nil, nil, nil
	}
	if err != nil {
		return nil, nil, 0, nil, nil, fmt.Errorf("serve: read decision journal: %w", err)
	}
	states = map[string]*adapt.State{}
	ensure := func(key string) *adapt.State {
		st := states[key]
		if st == nil {
			st = &adapt.State{Scenario: key}
			states[key] = st
			order = append(order, key)
		}
		return st
	}
	off := 0
	for off < len(raw) {
		nl := bytes.IndexByte(raw[off:], '\n')
		if nl < 0 {
			break // no trailing newline: torn tail
		}
		line := raw[off : off+nl]
		var probe struct{ Op, Scenario string }
		if err := json.Unmarshal(line, &probe); err != nil || probe.Scenario == "" {
			break // garbage from here on: torn tail
		}
		if probe.Op == "state" {
			var rec adaptStateRec
			if err := json.Unmarshal(line, &rec); err != nil {
				break
			}
			st := ensure(rec.Scenario)
			st.Preferred, st.TunedFor, st.Decisions = rec.Preferred, rec.TunedFor, rec.Decisions
			if rec.Seq > maxSeq {
				maxSeq = rec.Seq
			}
		} else {
			var d adapt.Decision
			if err := json.Unmarshal(line, &d); err != nil || d.Outcome == "" {
				break
			}
			applyDecision(ensure(d.Scenario), d)
			if d.Seq > maxSeq {
				maxSeq = d.Seq
			}
		}
		off += nl + 1
	}
	return states, order, maxSeq, raw[:off], raw[off:], nil
}

// foldDecisions renders the compacted image: one state line per scenario, in
// first-seen order.
func foldDecisions(states map[string]*adapt.State, order []string, maxSeq uint64) (*bytes.Buffer, error) {
	var buf bytes.Buffer
	for _, key := range order {
		st := states[key]
		rec := adaptStateRec{Op: "state", Scenario: key, Preferred: st.Preferred,
			TunedFor: st.TunedFor, Decisions: st.Decisions, Seq: maxSeq}
		b, err := json.Marshal(rec)
		if err != nil {
			return nil, err
		}
		buf.Write(append(b, '\n'))
	}
	return &buf, nil
}

// openDecisionJournal opens (creating if needed) the decision journal under
// dir, recovering prior state first: parse the valid prefix, quarantine a
// torn tail, rewrite the folded journal atomically, and return the restored
// per-scenario states in first-seen order plus the highest decision
// sequence. The same crash-safety discipline as the job journal.
func openDecisionJournal(dir string, compactEvery int) (*decisionJournal, []adapt.State, uint64, error) {
	path := filepath.Join(dir, adaptJournalName)
	states, order, maxSeq, valid, torn, err := parseDecisionJournal(path)
	if err != nil {
		return nil, nil, 0, err
	}
	if len(torn) > 0 {
		tornPath := filepath.Join(dir, quarantineDir, adaptJournalTornName)
		if err := os.WriteFile(tornPath, torn, 0o644); err != nil {
			return nil, nil, 0, fmt.Errorf("serve: quarantine decision journal tail: %w", err)
		}
	}
	buf, err := foldDecisions(states, order, maxSeq)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("serve: decision journal compact: %w", err)
	}
	compacted := len(valid) != buf.Len() || len(torn) > 0
	if compacted {
		if err := atomicRewrite(dir, path, buf.Bytes()); err != nil {
			return nil, nil, 0, fmt.Errorf("serve: decision journal compact: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("serve: open decision journal: %w", err)
	}
	j := &decisionJournal{path: path, dir: dir, compacted: compacted,
		compactEvery: compactEvery, f: f, states: states, order: order, maxSeq: maxSeq}
	restored := make([]adapt.State, 0, len(order))
	for _, key := range order {
		restored = append(restored, *states[key])
	}
	return j, restored, maxSeq, nil
}

// append durably records one settled decision (write + fsync — decisions are
// rare) and, once it is on disk, folds it into the in-memory state,
// compacting at the threshold. A decision that did not reach disk is an
// error and stays out of the fold, so a later compaction cannot resurrect it.
func (j *decisionJournal) append(d adapt.Decision, line []byte) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dead {
		return fmt.Errorf("serve: decision journal closed")
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("serve: decision journal write: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("serve: decision journal fsync: %w", err)
	}
	st := j.states[d.Scenario]
	if st == nil {
		st = &adapt.State{Scenario: d.Scenario}
		j.states[d.Scenario] = st
		j.order = append(j.order, d.Scenario)
	}
	applyDecision(st, d)
	if d.Seq > j.maxSeq {
		j.maxSeq = d.Seq
	}
	j.appended++
	j.maybeCompactLocked()
	return nil
}

// maybeCompactLocked folds the journal in place once compactEvery decisions
// have been appended since the last fold. Crash-safe the same way the job
// journal's fold is: the image goes to a temp file that stays open, the
// rename either installs it (and appends continue on that fd) or fails and
// leaves the journal untouched. Errors skip the fold — compaction is an
// optimization, never a reason to drop a decision.
func (j *decisionJournal) maybeCompactLocked() {
	if j.compactEvery <= 0 || j.appended < j.compactEvery {
		return
	}
	j.appended = 0
	buf, err := foldDecisions(j.states, j.order, j.maxSeq)
	if err != nil {
		return
	}
	fi, err := os.Stat(j.path)
	if err != nil || int64(buf.Len()) >= fi.Size() {
		return // nothing to fold away
	}
	tmp, err := os.CreateTemp(j.dir, adaptJournalName+".*"+cacheTmpSuffix)
	if err != nil {
		return
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	old := j.f
	j.f = tmp // tmp's fd now addresses the live journal, at its end
	old.Close()
	if j.onCompact != nil {
		j.onCompact()
	}
}

// Close stops the journal; further appends fail (the in-memory stream behind
// /adapt/journal still has them). Appends are unbuffered, so Close is also
// all a kill -9 does to the journal — the crash test seam calls it too.
func (j *decisionJournal) Close() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dead {
		return
	}
	j.dead = true
	j.f.Close()
}
