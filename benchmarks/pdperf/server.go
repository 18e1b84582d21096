package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"sync"
	"time"

	"procdecomp/internal/bench"
	"procdecomp/internal/obs"
	"procdecomp/internal/serve"
)

// server is pdserve running in this process behind a real loopback
// listener, the way internal/load boots it: two workers, adaptation off, the
// cache and journal in a per-run temp dir inside the checkout.
type server struct {
	s      *serve.Server
	hs     *http.Server
	addr   string
	base   string
	dir    string
	client *http.Client
	once   sync.Once
}

// bootServer starts the server and registers its teardown with the run's
// cleanup stack, so every exit path — the watchdog's too — stops it.
func bootServer(e *env) (*server, error) {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.outDir, "pdserve-*")
	if err != nil {
		return nil, err
	}
	sv := &server{dir: dir}
	e.clean.add(sv.stop)
	if sv.s, err = serve.New(serve.Config{Workers: 2, CacheDir: dir}); err != nil {
		sv.stop()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sv.stop()
		return nil, err
	}
	sv.addr = ln.Addr().String()
	sv.base = "http://" + sv.addr
	sv.hs = &http.Server{Handler: sv.s.Handler()}
	go sv.hs.Serve(ln) // returns once stop shuts the http.Server down
	sv.client = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxIdleConns: 2, MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2,
	}}
	e.mu.Lock()
	e.booted = append(e.booted, sv)
	e.mu.Unlock()
	if _, _, err := sv.do(nil, handle{}, "GET", "/readyz", nil, ""); err != nil {
		sv.stop()
		return nil, err
	}
	return sv, nil
}

// stop drains the server, closes the listener and every connection, and
// removes the temp dir. It is idempotent: instances stop their server when
// they close and the cleanup stack stops it again on the way out.
func (sv *server) stop() {
	sv.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if sv.s != nil {
			sv.s.Shutdown(ctx) // drain first: terminal events flush to open streams
		}
		if sv.client != nil {
			// Before the listener: http.Server.Shutdown polls until every
			// connection is gone, and the keep-alive ones are ours to close.
			sv.client.CloseIdleConnections()
		}
		if sv.hs != nil {
			if sv.hs.Shutdown(ctx) != nil {
				sv.hs.Close()
			}
		}
		if sv.s != nil {
			sv.s.Close()
		}
		os.RemoveAll(sv.dir)
	})
}

// do sends one request and reads the whole reply. With a tracer it records
// the client's view as children of parent: send (to request written), wait
// (to first response byte), read (to body done). Any status other than 200
// or 202 is an error.
func (sv *server) do(t *tracer, parent handle, method, path string, body []byte, rid string) (*http.Response, []byte, error) {
	req, err := http.NewRequest(method, sv.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	if rid != "" {
		req.Header.Set("X-Request-Id", rid)
	}
	var ph phases
	if t != nil {
		ph = phases{t: t, parent: parent}
		ph.next("send")
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { ph.next("wait") },
			GotFirstResponseByte: func() { ph.next("read") },
		}))
	}
	resp, err := sv.client.Do(req)
	if err != nil {
		ph.next("")
		return nil, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ph.next("")
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	return resp, b, nil
}

// phases records a request's consecutive client-side spans. The transport
// reports progress from its own goroutines, hence the lock.
type phases struct {
	mu     sync.Mutex
	t      *tracer
	parent handle
	cur    handle
}

// next ends the current phase and, unless name is empty, opens the next.
func (p *phases) next(name string) {
	if p.t == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cur.end()
	p.cur = handle{}
	if name != "" {
		p.cur = p.t.start(name, p.parent)
	}
}

// scrape reads /metrics through the strict parser and times the scrape.
func (sv *server) scrape(t *tracer) (*obs.Scrape, error) {
	start := time.Now()
	_, b, err := sv.do(nil, handle{}, "GET", "/metrics", nil, "")
	if err != nil {
		return nil, err
	}
	sc, err := obs.ParsePrometheus(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	t.observe("obs.scrape_us", float64(time.Since(start))/float64(us))
	t.observe("obs.metrics_bytes", float64(len(b)))
	return sc, nil
}

// gsRequest is a /run of the Fig. 1 program sent as inline source, so a
// nonce comment can make its content key new: S=4, opt3, blk 8, N as given.
func gsRequest(n int64, nonce uint64) serve.Request {
	return serve.Request{
		Source: fmt.Sprintf("-- nonce %x\n%s", nonce, bench.GSSource),
		Entry:  "gs_iteration", Procs: 4, Mode: "opt3", Blk: 8,
		Defines: map[string]int64{"N": n},
	}
}

// gsBuild is the same request as a direct library build.
func gsBuild(n int64) build {
	return build{src: bench.GSSource, entry: "gs_iteration", procs: 4,
		defines: map[string]int64{"N": n}, mode: "opt3", blk: 8}
}

func runResult(body []byte) (opResult, error) {
	var rr serve.RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		return opResult{}, fmt.Errorf("bad /run body: %w", err)
	}
	return opResult{Makespan: rr.Makespan, Messages: rr.Messages}, nil
}

func rid(salt uint64) string { return fmt.Sprintf("pdperf-%x", salt) }

// coldRun is one POST /run with a content key nobody has sent before: it
// crosses HTTP → admission → queue → worker → the whole pipeline → cache
// Put → encode.
func (sv *server) coldRun(t *tracer, lane int, n int64, salt uint64) (opResult, []byte, error) {
	body, err := json.Marshal(gsRequest(n, salt))
	if err != nil {
		return opResult{}, nil, err
	}
	root := t.root("POST /run (cold)", rid(salt), lane)
	resp, b, err := sv.do(t, root, "POST", "/run", body, rid(salt))
	d, _ := root.end()
	if err != nil {
		return opResult{}, nil, err
	}
	if c := resp.Header.Get("X-Cache"); c != "miss" {
		return opResult{}, nil, fmt.Errorf("cold /run answered X-Cache: %q", c)
	}
	if t != nil && !t.countAllocs {
		t.observe("serve.http_ms", float64(d)/float64(ms))
		t.observe("serve.resp_bytes", float64(len(b)))
	}
	res, err := runResult(b)
	return res, b, err
}

// hit repeats a primed request; the reply must be a cache hit with exactly
// the bytes of the miss that filled the entry.
func (sv *server) hit(t *tracer, lane int, body, want []byte, salt uint64) (opResult, error) {
	root := t.root("POST /run (hit)", rid(salt), lane)
	resp, b, err := sv.do(t, root, "POST", "/run", body, rid(salt))
	d, _ := root.end()
	if err != nil {
		return opResult{}, err
	}
	if c := resp.Header.Get("X-Cache"); c != "hit" {
		return opResult{}, fmt.Errorf("repeat /run answered X-Cache: %q", c)
	}
	if !bytes.Equal(b, want) {
		return opResult{}, fmt.Errorf("hit bytes differ from the miss that filled the entry")
	}
	if t != nil && !t.countAllocs {
		t.observe("serve.hit_us", float64(d)/float64(us))
	}
	return runResult(b)
}

// durableJob is POST /jobs with a novel /run → 202 → follow the event
// stream to its terminal event → GET the result.
func (sv *server) durableJob(t *tracer, lane int, n int64, salt uint64) (opResult, error) {
	body, err := json.Marshal(serve.JobSubmit{Endpoint: "/run", Request: gsRequest(n, salt)})
	if err != nil {
		return opResult{}, err
	}
	root := t.root("durable job", rid(salt), lane)
	defer root.end()
	start := time.Now()

	submit := t.start("POST /jobs", root)
	_, b, err := sv.do(t, submit, "POST", "/jobs", body, rid(salt))
	ack, _ := submit.end()
	if err != nil {
		return opResult{}, err
	}
	var acc serve.JobAccepted
	if err := json.Unmarshal(b, &acc); err != nil || acc.ID == "" {
		return opResult{}, fmt.Errorf("bad /jobs acknowledgment %q", b)
	}

	// The stream replays from event 0 and always ends with the terminal event.
	follow := t.start("GET /jobs/{id}/events", root)
	_, b, err = sv.do(t, follow, "GET", "/jobs/"+acc.ID+"/events", nil, rid(salt))
	follow.end()
	if err != nil {
		return opResult{}, err
	}
	events, terminal := 0, ""
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return opResult{}, fmt.Errorf("bad event %q", sc.Bytes())
		}
		events++
		if ev.Terminal {
			terminal = ev.Type
		}
	}
	if terminal != "done" {
		return opResult{}, fmt.Errorf("job %s ended %q", acc.ID, terminal)
	}
	done := time.Since(start)

	get := t.start("GET /jobs/{id}", root)
	_, b, err = sv.do(t, get, "GET", "/jobs/"+acc.ID, nil, rid(salt))
	get.end()
	if err != nil {
		return opResult{}, err
	}
	if t != nil && !t.countAllocs {
		t.observe("serve.job_ack_ms", float64(ack)/float64(ms))
		t.observe("serve.job_done_ms", float64(done)/float64(ms))
		t.observe("serve.events_per_job", float64(events))
	}
	return runResult(b)
}
