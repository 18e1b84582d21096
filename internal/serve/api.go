// Package serve is the long-running face of the toolchain: an HTTP service
// fronting the pdc/pdrun/pdmap/pdtrace pipelines with the robustness a
// shared service needs and the one-shot commands do not — bounded admission,
// per-request deadlines, load shedding, panic isolation with retries, and a
// crash-safe content-keyed result cache.
//
// The endpoints mirror the commands:
//
//	POST /compile  -> generated per-process C (pdc)
//	POST /run      -> a simulated execution's stats and outputs (pdrun)
//	POST /search   -> the decomposition search report (pdmap)
//	POST /trace    -> the critical-path analysis of a traced run (pdtrace)
//
// Every response body is a deterministic function of the request body, which
// is what makes the cache exact: equal requests are answered with identical
// bytes, before or after a restart.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"procdecomp/internal/analysis"
	"procdecomp/internal/autotune"
	"procdecomp/internal/bench"
	"procdecomp/internal/exec"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
	"procdecomp/internal/sem"
	"procdecomp/internal/spmd"
	"procdecomp/internal/trace"
	"procdecomp/internal/xform"
)

// Request is the body every endpoint accepts. Unset fields take defaults in
// normalize; TimeoutMS shapes scheduling only and is excluded from the
// content key, so two requests differing only in deadline share a cache
// entry.
type Request struct {
	// GS selects the built-in Gauss-Seidel program (paper Fig. 1); Source
	// supplies Idn text. Exactly one of the two.
	GS     bool   `json:",omitempty"`
	Source string `json:",omitempty"`
	// Entry is the procedure compiled and measured (default with GS:
	// gs_iteration).
	Entry string `json:",omitempty"`
	Procs int    `json:",omitempty"` // default 4
	// Mode/Blk select the transformation pipeline for /compile, /run and
	// /trace (default opt3, blk 8). /search enumerates its own.
	Mode    string           `json:",omitempty"`
	Blk     int64            `json:",omitempty"`
	Defines map[string]int64 `json:",omitempty"`
	// Dist names the declaration /search retargets (default: the program's
	// only one).
	Dist string `json:",omitempty"`
	// Keep/TopK tune the /search tiers (0 = library defaults).
	Keep int `json:",omitempty"`
	TopK int `json:",omitempty"`
	// TimeoutMS is the per-request deadline in milliseconds (0 = the
	// server's default; values above the server's maximum are clamped).
	TimeoutMS int64 `json:",omitempty"`
}

// ErrInvalid marks a request rejected before any work starts (HTTP 400).
var ErrInvalid = errors.New("serve: invalid request")

func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrInvalid}, args...)...)
}

// endpoints the service understands, in routing order.
var endpoints = []string{"/compile", "/run", "/search", "/trace"}

const maxProcs = 512

// normalize validates the request and fills defaults, returning the
// canonical form that the content key hashes.
func normalize(endpoint string, req Request) (Request, error) {
	switch {
	case req.GS && req.Source != "":
		return req, invalidf("GS and Source are mutually exclusive")
	case req.GS:
		req.Source = ""
		if req.Entry == "" {
			req.Entry = "gs_iteration"
		}
	case req.Source == "":
		return req, invalidf("one of Source or GS is required")
	}
	if req.Entry == "" {
		return req, invalidf("Entry is required")
	}
	if req.Procs == 0 {
		req.Procs = 4
	}
	if req.Procs < 1 || req.Procs > maxProcs {
		return req, invalidf("Procs %d outside [1, %d]", req.Procs, maxProcs)
	}
	if req.Mode == "" {
		req.Mode = "opt3"
	}
	if req.Blk == 0 {
		req.Blk = 8
	}
	if endpoint != "/search" {
		if _, ok := xform.StandardPipeline(req.Mode, req.Blk); !ok && req.Mode != "rtr" {
			return req, invalidf("unknown mode %q", req.Mode)
		}
	}
	if req.TimeoutMS < 0 {
		return req, invalidf("negative TimeoutMS")
	}
	return req, nil
}

// contentKey is the cache key of one request: the endpoint plus the
// canonical JSON of the normalized request with its deadline zeroed.
// encoding/json emits struct fields in declaration order and map keys
// sorted, so equal requests hash equal. A degraded /search result (budget
// > 0) hashes under a budget-qualified prefix: a reduced-fidelity answer
// must never be served later as the full one, or vice versa. A /run
// evaluated under an adaptive mapping preference hashes under a
// mapping-qualified prefix for the same reason: the response bytes depend
// on the decomposition actually compiled, so entries from before and after
// a re-decomposition switch must never alias.
func contentKey(endpoint string, req Request, budget int, mapping string) string {
	req.TimeoutMS = 0
	b, err := json.Marshal(req)
	if err != nil {
		// A Request is plain data; its marshal cannot fail.
		panic(fmt.Sprintf("serve: marshal request: %v", err))
	}
	prefix := endpoint
	if budget > 0 {
		prefix = fmt.Sprintf("%s@budget%d", prefix, budget)
	}
	if mapping != "" {
		prefix = fmt.Sprintf("%s@map:%s", prefix, mapping)
	}
	sum := sha256.Sum256(append([]byte(prefix+"\n"), b...))
	return hex.EncodeToString(sum[:])
}

// evalHooks carries the per-job observation channels into an evaluation:
// emit streams progress events (heartbeats, search tiers) to the job's
// event log; wantTrace asks the machine run to record its virtual-time
// trace and hand the Chrome bytes to chrome. A nil hooks runs silently.
type evalHooks struct {
	emit      func(Event)
	wantTrace bool
	chrome    func([]byte)
}

func (h *evalHooks) publish(ev Event) {
	if h != nil && h.emit != nil {
		h.emit(ev)
	}
}

// evaluate dispatches one admitted job to its endpoint's evaluator and
// marshals the response deterministically. The payload's Budget, when
// positive, caps the /search candidate set — the degraded admission mode;
// its Mapping, when set, retargets the program's dist declaration to the
// adaptation controller's preferred decomposition before compiling.
func evaluate(ctx context.Context, p payload, hooks *evalHooks) ([]byte, error) {
	var (
		out any
		err error
	)
	switch req := *p.Req; p.Endpoint {
	case "/compile":
		out, err = doCompile(req)
	case "/run":
		out, err = doRun(ctx, req, p.Mapping, hooks)
	case "/search":
		out, err = doSearch(ctx, req, p.Budget, hooks)
	case "/trace":
		out, err = doTrace(ctx, req, p.Mapping, hooks)
	default:
		return nil, invalidf("no endpoint %s", p.Endpoint)
	}
	if err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("serve: marshal response: %w", err)
	}
	return append(b, '\n'), nil
}

func source(req Request) string {
	if req.GS {
		return bench.GSSource
	}
	return req.Source
}

// compile builds the per-process programs: parse, semantic-check at the
// machine size, then xform.Compile. A non-empty mapping — the adaptation
// controller's preference — retargets the program's dist declaration between
// parse and semantic check, exactly the way the autotune search compiles its
// candidates.
func compile(req Request, mapping string) ([]*spmd.Program, *sem.Info, error) {
	prog, err := lang.Parse(source(req))
	if err != nil {
		return nil, nil, err
	}
	if mapping != "" {
		m, err := autotune.ParseMapping(mapping)
		if err != nil {
			return nil, nil, fmt.Errorf("serve: adapt mapping %q: %w", mapping, err)
		}
		dn, err := autotune.PickDist(prog, req.Dist)
		if err != nil {
			return nil, nil, fmt.Errorf("serve: adapt retarget: %w", err)
		}
		if err := autotune.Retarget(prog, dn, m); err != nil {
			return nil, nil, err
		}
	}
	info, errs := sem.Check(prog, sem.Config{Procs: int64(req.Procs), Defines: req.Defines})
	if len(errs) > 0 {
		return nil, nil, errs[0]
	}
	progs, err := xform.Compile(info, req.Entry, req.Mode, req.Blk)
	return progs, info, err
}

// CompileResponse is /compile's body: the generated C per process program.
type CompileResponse struct {
	Entry    string
	Procs    int
	Mode     string
	Blk      int64 `json:",omitempty"`
	Programs []string
}

func doCompile(req Request) (*CompileResponse, error) {
	progs, _, err := compile(req, "")
	if err != nil {
		return nil, err
	}
	resp := &CompileResponse{Entry: req.Entry, Procs: req.Procs, Mode: req.Mode}
	if req.Mode == "opt3" {
		resp.Blk = req.Blk
	}
	for _, p := range progs {
		resp.Programs = append(resp.Programs, spmd.FormatC(p))
	}
	return resp, nil
}

// RunResponse is /run's body.
type RunResponse struct {
	Entry    string
	Procs    int
	Mode     string
	Blk      int64 `json:",omitempty"`
	Makespan uint64
	Messages int64
	Values   int64
	Bytes    int64
	// Mapping reports the adaptive decomposition the run was compiled with,
	// when the controller had a preference ("" = the program as declared).
	Mapping string `json:",omitempty"`
	// Arrays and Scalars summarize the outputs in sorted name order, so the
	// response bytes are deterministic.
	Arrays  []exec.ArraySummary  `json:",omitempty"`
	Scalars []exec.ScalarSummary `json:",omitempty"`
}

func doRun(ctx context.Context, req Request, mapping string, hooks *evalHooks) (*RunResponse, error) {
	out, _, err := runOnce(ctx, req, mapping, nil, hooks)
	if err != nil {
		return nil, err
	}
	resp := &RunResponse{
		Entry: req.Entry, Procs: req.Procs, Mode: req.Mode,
		Makespan: uint64(out.Stats.Makespan),
		Messages: out.Stats.Messages, Values: out.Stats.Values, Bytes: out.Stats.Bytes,
		Mapping: mapping,
	}
	if req.Mode == "opt3" {
		resp.Blk = req.Blk
	}
	resp.Arrays, resp.Scalars = out.Summary()
	return resp, nil
}

// runOnce compiles and executes the request's program, optionally traced.
// With hooks, the simulated machine streams virtual-time heartbeats to the
// job's event log as it runs.
func runOnce(ctx context.Context, req Request, mapping string, tr *trace.Log, hooks *evalHooks) (*exec.SPMDOutcome, machine.Config, error) {
	progs, info, err := compile(req, mapping)
	if err != nil {
		return nil, machine.Config{}, err
	}
	ins, err := exec.PatternInputs(info, req.Entry)
	if err != nil {
		return nil, machine.Config{}, err
	}
	cfg := machine.DefaultConfig(req.Procs)
	cfg.Tracer = tr
	if hooks != nil && hooks.wantTrace && tr == nil {
		// The caller wants the machine's Chrome trace but the evaluation does
		// not otherwise record one: attach a log just for the stitch.
		tr = trace.New()
		cfg.Tracer = tr
	}
	if hooks != nil && hooks.emit != nil {
		cfg.Heartbeat = func(clock machine.Cost) {
			hooks.publish(Event{Type: "heartbeat", Clock: uint64(clock)})
		}
	}
	out, err := exec.RunSPMDCtx(ctx, progs, cfg, ins)
	if err == nil && hooks != nil && hooks.wantTrace && hooks.chrome != nil && tr != nil {
		var buf bytes.Buffer
		if werr := tr.WriteChromeTrace(&buf); werr == nil {
			hooks.chrome(buf.Bytes())
		}
	}
	return out, cfg, err
}

func doTrace(ctx context.Context, req Request, mapping string, hooks *evalHooks) (*analysis.Report, error) {
	tr := trace.New()
	_, cfg, err := runOnce(ctx, req, mapping, tr, hooks)
	if err != nil {
		return nil, err
	}
	return analysis.Analyze(analysis.NewDump(cfg, tr), analysis.Options{TopLinks: 8, TopTags: 8})
}

// SearchResponse is /search's body: the autotune report, plus the candidate
// budget when admission degraded the search under saturation. A full-
// fidelity response (budget 0) marshals byte-identically to the bare
// report, so existing clients and cache entries see no difference.
type SearchResponse struct {
	*autotune.Report
	DegradedBudget int `json:",omitempty"`
}

func doSearch(ctx context.Context, req Request, budget int, hooks *evalHooks) (*SearchResponse, error) {
	dn, err := pickDist(req)
	if err != nil {
		return nil, invalidf("%v", err)
	}
	name := "request"
	if req.GS {
		name = "gauss-seidel"
	}
	w := &autotune.Workload{Name: name, Source: source(req), Entry: req.Entry, Dist: dn, Defines: req.Defines}
	opts := autotune.Options{Keep: req.Keep, TopK: req.TopK}
	if budget > 0 {
		// Degraded admission: replay only `budget` statically ranked
		// candidates and confirm a single winner on the machine. Same
		// tiers, bounded work.
		opts.Keep = budget
		opts.TopK = 1
	}
	if hooks != nil && hooks.emit != nil {
		opts.Progress = func(p autotune.Progress) {
			hooks.publish(Event{Type: "search", Stage: p.Stage, Candidate: p.Candidate,
				Done: p.Done, Total: p.Total, Makespan: p.Makespan, Top: p.Top})
		}
	}
	rep, err := autotune.SearchCtx(ctx, w, machine.DefaultConfig(req.Procs), opts)
	if err != nil {
		return nil, err
	}
	return &SearchResponse{Report: rep, DegradedBudget: budget}, nil
}

// pickDist resolves the declaration a search of the request's program
// varies (autotune.PickDist on its parsed source).
func pickDist(req Request) (string, error) {
	prog, err := lang.Parse(source(req))
	if err != nil {
		return "", err
	}
	return autotune.PickDist(prog, req.Dist)
}
