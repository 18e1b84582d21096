package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"procdecomp/internal/obs"
	"procdecomp/internal/serve"
)

// Target is one in-process pdserve behind a real loopback listener, and the
// client every scenario drives it with. Boot and Drain are the only way in
// and out, so the boot sequence, the readiness gate, the drain order and the
// scrape-and-reconcile exist once for the storm, the phase experiment and
// the smoke alike.
type Target struct {
	s       *serve.Server
	hs      *http.Server
	client  *http.Client
	base    string
	tmp     string // throwaway cache dir to remove on Drain; "" = the caller's
	adaptOn bool

	drain   sync.Once
	drained Drained
	err     error
}

// Drained is what a drained Target leaves behind: the settled ledgers, read
// over the wire after the last job finished and before the listener closed.
type Drained struct {
	// Metrics holds every counter sample of the post-drain /metrics scrape,
	// keyed by the sample's canonical name{labels} form. Check is the outcome
	// of reconciling that scrape against Stats: "" when every identity held,
	// else the first violation. A scrape that cannot be fetched or does not
	// parse strictly lands in Check too — an unscrapeable exposition is
	// itself a reconciliation failure.
	Metrics map[string]float64
	Check   string
	// Decisions is the raw NDJSON of GET /adapt/journal ("" when the server
	// runs no adaptation controller) — the byte stream seeded runs are
	// compared on. Read after the drain because the controller settles its
	// queued triggers as decisions while it closes.
	Decisions string
	// Stats is the server's own view after the drain.
	Stats serve.Stats
}

// Boot starts a server on a loopback listener and returns once /readyz
// answers 200: the server only reports ready when journal recovery is
// complete, so no request can race the recovery sweep. With no cfg.CacheDir
// the target gets a throwaway cache + journal directory (removed by Drain),
// so the durable-job and cache paths are always under load. conns sizes the
// client's idle pool to the number of concurrent callers; a smaller pool
// would make most requests pay a TCP connect inside their measured latency.
func Boot(cfg serve.Config, conns int) (*Target, error) {
	t := &Target{adaptOn: cfg.Adapt.Enabled}
	if cfg.CacheDir == "" {
		dir, err := os.MkdirTemp("", "pdload-cache-*")
		if err != nil {
			return nil, err
		}
		cfg.CacheDir, t.tmp = dir, dir
	}
	s, err := serve.New(cfg)
	if err != nil {
		os.RemoveAll(t.tmp)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		os.RemoveAll(t.tmp)
		return nil, err
	}
	t.s, t.hs = s, &http.Server{Handler: s.Handler()}
	go t.hs.Serve(ln)
	t.base = "http://" + ln.Addr().String()
	t.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns: conns, MaxIdleConnsPerHost: conns,
	}}
	if err := t.awaitReady(); err != nil {
		t.Drain()
		return nil, err
	}
	return t, nil
}

func (t *Target) awaitReady() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		resp, _, err := slurp(t.Get(ctx, "/readyz"))
		if err == nil && resp.StatusCode == http.StatusOK {
			return nil
		}
		if err == nil {
			err = fmt.Errorf("/readyz answered %s", resp.Status)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("load: server never became ready: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Post sends payload as a JSON body. A non-empty tenant travels as X-Tenant,
// a non-empty rid as X-Request-Id.
func (t *Target) Post(ctx context.Context, path, tenant, rid string, payload any) (*http.Response, error) {
	b, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, "POST", t.base+path, bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	if rid != "" {
		req.Header.Set("X-Request-Id", rid)
	}
	return t.client.Do(req)
}

// Get fetches path; the caller closes the body.
func (t *Target) Get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", t.base+path, nil)
	if err != nil {
		return nil, err
	}
	return t.client.Do(req)
}

// slurp reads a response to its end and closes it: slurp(t.Get(ctx, path)).
// The response comes back even when the read failed, so a caller can tell a
// request that was never answered from an answer that broke off.
func slurp(resp *http.Response, err error) (*http.Response, []byte, error) {
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

// Drain shuts the target down in the one order that keeps every promise:
//
//  1. drain the server — every job reaches a terminal state and every open
//     NDJSON stream its terminal event while the listener is still up (the
//     other order would cut live streams off mid-job);
//  2. read the settled ledgers over the wire — the reconciliation identities
//     need every job settled and the gauges at rest, and a scrape needs a
//     listener;
//  3. verify the strictly parsed scrape against the server's Stats;
//  4. only then close the listener, and remove a throwaway cache dir.
//
// The error is the server's Shutdown error: a drain that timed out canceled
// its stragglers, and what was scraped afterwards describes a server that
// was cut short, not one that finished — the caller must not gate on it as
// if it had. Later calls return the first call's outcome.
func (t *Target) Drain() (Drained, error) {
	t.drain.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		t.err = t.s.Shutdown(ctx)
		if t.adaptOn {
			_, lines, err := slurp(t.Get(ctx, "/adapt/journal"))
			if err != nil && t.err == nil {
				t.err = fmt.Errorf("load: reading the decision journal: %w", err)
			}
			t.drained.Decisions = string(lines)
		}
		t.drained.Stats = t.s.Stats()
		t.drained.Metrics, t.drained.Check = t.scrape(ctx)
		// Hang up first: a connection the transport dialed and never used
		// looks new, not idle, to the server, and Shutdown waits five seconds
		// on those. The listener closes either way; an error here only says
		// a connection was still open when ctx ran out.
		t.client.CloseIdleConnections()
		t.hs.Shutdown(ctx)
		os.RemoveAll(t.tmp)
	})
	return t.drained, t.err
}

// scrape reads /metrics, parses it strictly, flattens the counter samples and
// reconciles the scrape with the drained server's Stats.
func (t *Target) scrape(ctx context.Context) (map[string]float64, string) {
	resp, err := t.Get(ctx, "/metrics")
	if err != nil {
		return nil, fmt.Sprintf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Sprintf("scrape: status %d", resp.StatusCode)
	}
	sc, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		return nil, fmt.Sprintf("scrape does not parse: %v", err)
	}
	out := map[string]float64{}
	for _, smp := range sc.Samples {
		if sc.Types[smp.Name] == "counter" {
			out[smp.Key()] = smp.Value
		}
	}
	if err := serve.VerifyScrape(sc, t.drained.Stats); err != nil {
		return out, err.Error()
	}
	return out, ""
}
