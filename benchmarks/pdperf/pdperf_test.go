package main

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// lockedBuffer is a log the watchdog's goroutine and the run may share.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// runTiny drives one -scale tiny run inside the test process and asserts
// the process hygiene the benchmark promises on every exit path: every
// listener closed, every temp dir gone, the goroutine count back where it
// started, and no child process ever spawned.
func runTiny(t *testing.T, args ...string) (code int, stdout string, e *env) {
	t.Helper()
	before := runtime.NumGoroutine()
	var out bytes.Buffer
	var log lockedBuffer
	e, o, code := parse(append([]string{"-scale", "tiny", "-out", t.TempDir()}, args...), &log)
	if e == nil {
		t.Fatalf("parse %v: exit %d: %s", args, code, log.String())
	}
	var exited atomic.Int32 // the watchdog calls exit from its own goroutine
	exited.Store(-1)
	code = e.main(o, &out, func(c int) { exited.Store(int32(c)) })
	if x := int(exited.Load()); x >= 0 && x != code {
		t.Errorf("watchdog exited %d but main returned %d", x, code)
	}
	t.Logf("pdperf %s: exit %d\n%s", strings.Join(args, " "), code, log.String())

	for _, sv := range e.booted {
		if c, err := net.DialTimeout("tcp", sv.addr, time.Second); err == nil {
			c.Close()
			t.Errorf("listener %s still accepts connections", sv.addr)
		}
		if _, err := os.Stat(sv.dir); !os.IsNotExist(err) {
			t.Errorf("temp dir %s was left behind (stat: %v)", sv.dir, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before the run, %d after:\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
	kids, _ := filepath.Glob("/proc/self/task/*/children")
	for _, f := range kids {
		if b, err := os.ReadFile(f); err == nil && len(bytes.TrimSpace(b)) > 0 {
			t.Errorf("%s lists child processes: %s", f, b)
		}
	}
	return code, out.String(), e
}

// lastLine parses the result line, insisting on exactly the contract's keys.
func lastLine(t *testing.T, stdout string) output {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatalf("last line of stdout is not JSON: %v\n%s", err, stdout)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(keys) != 4 {
		t.Errorf("result line has %d keys, want exactly correct, attempted, failed, metrics", len(keys))
	}
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// benchmarkJSON is the declaration at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metric `json:"end_to_end"`
	PerLayer   []metric `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	return decl
}

// checkEmitted asserts a run printed every declared metric exactly once,
// with its declared unit, and nothing undeclared.
func checkEmitted(t *testing.T, what string, out output, declared []metric) {
	t.Helper()
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, out.Correct, out.Attempted, out.Failed)
	}
	for _, m := range declared {
		v, ok := out.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: declared metric %s was not emitted", what, m.Name)
		case v.Unit != m.Unit:
			t.Errorf("%s: %s emitted in %q, declared in %q", what, m.Name, v.Unit, m.Unit)
		}
	}
	if len(out.Metrics) != len(declared) { // JSON object keys are unique, so equal sizes = nothing extra
		for name := range out.Metrics {
			t.Logf("%s: emitted %s", what, name)
		}
		t.Errorf("%s: %d metrics emitted, %d declared", what, len(out.Metrics), len(declared))
	}
}

// TestSchemaAndHygiene runs every workload at tiny scale (untraced, and one
// traced run) and holds BENCHMARK.json, the Go metric tables and the
// printed output together.
func TestSchemaAndHygiene(t *testing.T) {
	decl := loadBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	ws := workloads(true)
	if len(decl.Workloads) != 4 || len(ws) != 4 {
		t.Fatalf("%d workloads declared, %d defined, want 4", len(decl.Workloads), len(ws))
	}
	for i, w := range decl.Workloads {
		if w.Name != ws[i].name || w.Why != ws[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), workloads.go says %q (%q)", i, w.Name, w.Why, ws[i].name, ws[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(decl.EndToEnd) > 16 || len(decl.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics declared, limits are 16 and 128", len(decl.EndToEnd), len(decl.PerLayer))
	}
	same := func(kind string, json, table []metric) {
		if len(json) != len(table) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(json), len(table))
		}
		for i := range json {
			if json[i] != table[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, metrics.go %+v", kind, i, json[i], table[i])
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
	seen := map[string]bool{}
	for _, m := range append(append([]metric{}, decl.EndToEnd...), decl.PerLayer...) {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or used twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range decl.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}

	sims := map[string][2]float64{}
	for _, w := range ws {
		seeds := []string{"1"}
		if w.name == "fig6-exec" || w.rate > 0 { // the seed shuffles the op order and draws the arrival schedule
			seeds = append(seeds, "2")
		}
		for _, seed := range seeds {
			code, stdout, _ := runTiny(t, "-workload", w.name, "-seed", seed, "-seconds", "0.3", "-trace", "0")
			if code != 0 {
				t.Fatalf("%s seed %s: exit %d", w.name, seed, code)
			}
			out := lastLine(t, stdout)
			checkEmitted(t, w.name, out, decl.EndToEnd)
			for _, m := range decl.EndToEnd {
				if out.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s: %s = %v, end-to-end metrics must never be 0", w.name, m.Name, out.Metrics[m.Name].Value)
				}
			}
			// Simulated statistics must not depend on the seed.
			sim := [2]float64{out.Metrics["sim_cycles_geomean"].Value, out.Metrics["sim_messages"].Value}
			if prev, ok := sims[w.name]; ok && prev != sim {
				t.Errorf("%s: simulated statistics %v with seed 1, %v with seed 2", w.name, prev, sim)
			}
			sims[w.name] = sim
		}
	}
	code, stdout, _ := runTiny(t, "-workload", "serve-open", "-trace", "1")
	if code != 0 {
		t.Fatalf("traced serve-open: exit %d", code)
	}
	checkEmitted(t, "traced serve-open", lastLine(t, stdout), decl.PerLayer)
}

// TestWatchdogShutsEverythingDown forces a tiny deadline on a run that
// would otherwise take seconds: it must come back non-zero, without a
// result line, with the server shut down (runTiny asserts that part).
func TestWatchdogShutsEverythingDown(t *testing.T) {
	for _, w := range []string{"serve-durable", "serve-open"} {
		start := time.Now()
		code, stdout, e := runTiny(t, "-workload", w, "-seconds", "30", "-watchdog", "400ms")
		if code != 3 {
			t.Errorf("%s: exit %d after the watchdog fired, want 3", w, code)
		}
		if strings.Contains(stdout, `"metrics"`) {
			t.Errorf("%s: printed a result after the watchdog fired: %s", w, stdout)
		}
		if len(e.booted) == 0 {
			t.Errorf("%s: no server was booted before the deadline", w)
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Errorf("%s: took %v to come back after a 400ms deadline", w, d)
		}
	}
}

// TestGateCatchesWrongResults checks the correctness gate can fail: with a
// perturbed expectation every op of that kind is a miss and the run exits
// non-zero.
func TestGateCatchesWrongResults(t *testing.T) {
	var log, out bytes.Buffer
	e, o, _ := parse([]string{"-scale", "tiny", "-out", t.TempDir(), "-workload", "fig6-exec", "-seconds", "0.1"}, &log)
	id := "fig6/opt3/S=4/N=16"
	want := e.exp[id]
	want.Makespan++
	e.exp[id] = want
	if code := e.main(o, &out, func(int) {}); code != 1 {
		t.Errorf("exit %d with a wrong expectation, want 1", code)
	}
	res := lastLine(t, out.String())
	if res.Correct || res.Failed == 0 || res.Metrics["ok_share"].Value >= 1 {
		t.Errorf("wrong result not reported: %+v", res)
	}
}

// TestPaperPoints pins the two Fig. 6 numbers the issue names.
func TestPaperPoints(t *testing.T) {
	var exp map[string]opResult
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		t.Fatal(err)
	}
	for id, want := range map[string]opResult{
		"fig6/opt3/S=8/N=64": {Makespan: 63879, Messages: 558},
		"fig6/hand/S=8/N=64": {Makespan: 54367, Messages: 558},
	} {
		if exp[id] != want {
			t.Errorf("expected.json[%s] = %+v, want %+v", id, exp[id], want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	root := tr.root("op", "x", 0)
	a := tr.start("a", root)
	time.Sleep(2 * time.Millisecond)
	a.end()
	time.Sleep(time.Millisecond)
	d, _ := root.end()
	self := tr.selfTimes(0)
	if self["op"]+self["a"] != d {
		t.Errorf("self times %v do not sum to the root span %v", self, d)
	}
	if self["a"] < 2*time.Millisecond || self["op"] < time.Millisecond {
		t.Errorf("self times %v", self)
	}
}
