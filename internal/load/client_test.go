package load

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"procdecomp/internal/serve"
)

// a search is the slowest request shape there is: tens of milliseconds, so a
// job submitted just before Drain is still queued or running when it starts.
var slowJob = serve.JobSubmit{Endpoint: "/search",
	Request: serve.Request{GS: true, Procs: 4, Keep: 8, TopK: 2, Defines: map[string]int64{"N": 24}}}

func submit(t *testing.T, tg *Target) serve.JobAccepted {
	t.Helper()
	resp, body, err := slurp(tg.Post(context.Background(), "/jobs", "", "", slowJob))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d: %s", resp.StatusCode, body)
	}
	var ack serve.JobAccepted
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	return ack
}

// Boot and Drain own the target's lifetime: a caller's cache dir outlives it,
// a throwaway one does not; a stream opened before Drain is served to its
// terminal event before the listener goes; and a second Drain changes nothing.
func TestBootDrain(t *testing.T) {
	kept := t.TempDir()
	own, err := Boot(serve.Config{CacheDir: kept}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := own.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(kept); err != nil {
		t.Errorf("Drain removed the caller's cache dir: %v", err)
	}

	tg, err := Boot(serve.Config{Workers: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer tg.Drain()
	if _, err := os.Stat(tg.tmp); err != nil {
		t.Fatalf("no throwaway cache dir while the target is up: %v", err)
	}
	ack := submit(t, tg)
	stream, err := tg.Get(context.Background(), "/jobs/"+ack.ID+"/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		t.Fatalf("event stream: status %d", stream.StatusCode)
	}
	terminal := make(chan bool, 1)
	go func() {
		saw := false
		sc := bufio.NewScanner(stream.Body)
		sc.Buffer(make([]byte, 64*1024), 1024*1024)
		for sc.Scan() {
			var ev serve.Event
			if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Terminal {
				saw = true
			}
		}
		terminal <- saw
	}()

	d, err := tg.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if !<-terminal {
		t.Error("the stream opened before Drain ended without a terminal event")
	}
	if d.Check != "" {
		t.Errorf("post-drain scrape does not reconcile: %s", d.Check)
	}
	if d.Stats.Jobs.Accepted != 1 || d.Stats.Jobs.Done+d.Stats.Jobs.Failed != 1 {
		t.Errorf("job ledger after drain: %+v", d.Stats.Jobs)
	}
	if got := d.Metrics[`pdserve_jobs_total{state="accepted"}`]; got != 1 {
		t.Errorf("scraped accepted jobs = %v, want 1", got)
	}
	if _, err := os.Stat(tg.tmp); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("throwaway cache dir survives Drain: %v", err)
	}
	if _, err := tg.Get(context.Background(), "/healthz"); err == nil {
		t.Error("the listener still answers after Drain")
	}
	again, err := tg.Drain()
	if err != nil || !reflect.DeepEqual(again, d) {
		t.Errorf("second Drain returned (%v, %+v), want the first outcome", err, again)
	}
}

// A drain that ran out of time canceled its stragglers; Drain must say so
// rather than hand back a scrape of a server that was cut short.
func TestDrainReportsTimeout(t *testing.T) {
	tg, err := Boot(serve.Config{Workers: 1, DrainTimeout: time.Nanosecond}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		submit(t, tg)
	}
	_, err = tg.Drain()
	if err == nil || !strings.Contains(err.Error(), "drain timeout") {
		t.Fatalf("Drain over in-flight jobs with a 1ns budget returned %v, want the drain timeout", err)
	}
	if _, again := tg.Drain(); again != err {
		t.Errorf("second Drain returned %v, want the first error", again)
	}
}
