// Package adapt closes the serving loop the paper leaves open: the paper
// picks one decomposition statically, from locality of reference; this
// controller watches the workload a live pdserve actually receives and
// re-decomposes when it shifts. Per scenario (program × entry × machine
// size), it maintains an EWMA profile of the observed request shapes, detects
// a sustained shift with hysteresis (dwell before triggering, cooldown
// after), runs a bounded autotune search in a background worker — warm-
// started from the incumbent mapping, panic-isolated, cancellable on drain —
// and atomically publishes the winning mapping for subsequent requests.
//
// Everything the controller decides is a deterministic function of the
// observation sequence: profiles advance on discrete observation counts, not
// wall clocks; the search itself is the deterministic autotune pipeline; and
// every settled decision is journaled through Hooks.Persist, so two servers
// fed the same requests in the same order write byte-identical decision
// journals, and a crash-restarted server resumes from its journaled state.
package adapt

import (
	"context"
	"fmt"
	"math"
	"sync"
)

// Config tunes the controller. The zero value takes usable defaults.
type Config struct {
	// Enabled gates the whole subsystem; a disabled controller is never
	// constructed by the server.
	Enabled bool
	// MinObs is the minimum observations a scenario needs before it may
	// trigger at all (default 16) — a cold scenario is still learning.
	MinObs int
	// Dwell is how many consecutive observations the shift must persist
	// before a search triggers (default 8). Hysteresis: a transient burst
	// resets the count.
	Dwell int
	// Cooldown is how many observations after a trigger the scenario stays
	// quiet (default 64) — no flapping, at most one switch per cooldown
	// window.
	Cooldown int
	// MinGain is the relative measured improvement the search winner must
	// deliver over the incumbent before the mapping actually switches
	// (default 0.05). Below it the decision is journaled as "held".
	MinGain float64
	// SearchKeep is how many statically ranked candidates the background
	// search replays (default 6).
	SearchKeep int
}

// The controller's fixed tuning. alpha is the EWMA weight a new observation
// moves the shape-share profile by; shiftAt is the share a non-incumbent
// shape must sustain to count as a shift. The background search confirms
// searchTopK candidates on the machine with searchWorkers measurement
// goroutines. queueDepth bounds pending triggers across scenarios: a
// trigger that finds the queue full is dropped and the scenario re-arms
// after its cooldown.
const (
	alpha         = 0.2
	shiftAt       = 0.6
	searchTopK    = 2
	searchWorkers = 2
	queueDepth    = 8
)

func (c Config) withDefaults() Config {
	if c.MinObs <= 0 {
		c.MinObs = 16
	}
	if c.Dwell <= 0 {
		c.Dwell = 8
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 64
	}
	if c.MinGain <= 0 {
		c.MinGain = 0.05
	}
	if c.SearchKeep <= 0 {
		c.SearchKeep = 6
	}
	return c
}

// A SearchSpec carries everything the background worker needs to re-run the
// scenario's search for one observed shape: the program, its entry and dist
// declaration, the machine size, and the pipeline the service compiles with.
type SearchSpec struct {
	Source  string
	Entry   string
	Dist    string
	Procs   int
	Mode    string
	Blk     int64
	Defines map[string]int64
}

// An Observation is one completed request fed to the controller: which
// scenario it belongs to, the shape it exercised, the makespan the service
// measured (or served from cache), and the spec a search for that shape
// would need.
type Observation struct {
	Scenario string
	Shape    string
	Makespan uint64
	Spec     SearchSpec
}

// A Decision is one settled adaptation: the trigger, the profile that fired
// it, what the search found, and what the controller did about it. Decisions
// are journaled as they settle and must be byte-stable: floats are rounded
// to 1e-6 before they land here.
type Decision struct {
	Seq      uint64
	Scenario string
	Cause    string // "shift": the only trigger cause so far
	Shape    string // the shape that became dominant
	Obs      int64  // scenario observation count at the trigger
	// Profile is the EWMA shape-share snapshot that fired the trigger.
	Profile map[string]float64
	// Incumbent is the mapping preferred when the search started ("" = the
	// program's declared decomposition).
	Incumbent string
	// Search outcome. Enumerated/Replayed/Candidates quantify the work;
	// the makespans and gains compare winner to incumbent under the same
	// measured pipeline.
	Enumerated        int
	Replayed          int
	Candidates        int
	IncumbentMakespan uint64
	WinnerMakespan    uint64
	PredictedGain     float64
	MeasuredGain      float64
	Winner            string
	// Outcome is "switched", "held" (gain below threshold), "failed",
	// "panicked", or "canceled" (drain interrupted the search).
	Outcome string
	// Mapping is the preference in force after this decision ("" = declared).
	Mapping string `json:",omitempty"`
	Note    string `json:",omitempty"`
}

// State is one scenario's durable essence — what a restarted server needs to
// resume with its learned preference intact.
type State struct {
	Scenario  string
	Preferred string
	TunedFor  string
	Decisions int64
}

// Stats is a point-in-time counter snapshot; after a drain, Triggers equals
// the sum of the per-outcome search counters (every trigger settles).
type Stats struct {
	Observations int64
	Triggers     int64
	Switched     int64
	Held         int64
	Failed       int64
	Panicked     int64
	Canceled     int64
}

// Hooks connect the controller to its host.
type Hooks struct {
	// Persist, when set, durably records each settled decision (the serve
	// decision journal). Called from the controller's worker goroutine, in
	// decision order.
	Persist func(Decision)
	// Metric, when set, mirrors controller counters into the host's metric
	// families: kinds "observation", "trigger" (label: cause), "search"
	// (label: outcome), "switch".
	Metric func(kind, label string)
}

// scenario is one (program, entry, procs)'s adaptive state.
type scenario struct {
	key string
	obs int64
	// shares is the EWMA shape profile; shapeOrder fixes iteration order to
	// first-observed so every derived value is deterministic.
	shares     map[string]float64
	shapeOrder []string
	specs      map[string]SearchSpec
	// tunedFor is the shape the current preference was chosen for. The
	// first observed shape anchors it, so a scenario whose traffic never
	// shifts never triggers.
	tunedFor  string
	preferred string // "" = the program's declared decomposition
	dwell     int
	cooldown  int
	searching bool
	decisions int64
}

// trigger is one queued search request for the background worker.
type trigger struct {
	scenario  string
	shape     string
	spec      SearchSpec
	incumbent string
	obs       int64
	profile   map[string]float64
}

// searchResult is what the search bridge reports back to the controller.
type searchResult struct {
	Enumerated        int
	Replayed          int
	Candidates        int
	Winner            string
	WinnerMakespan    uint64
	IncumbentMakespan uint64
	PredictedGain     float64
	MeasuredGain      float64
}

// Controller is the adaptation loop. One background worker drains triggers;
// Observe and Preferred are safe for concurrent use and never block on a
// running search.
type Controller struct {
	cfg   Config
	hooks Hooks
	// searchFn runs one triggered search — the autotune bridge in
	// production, a stub in controller tests.
	searchFn func(ctx context.Context, t *trigger) (searchResult, error)

	ctx      context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	triggers chan *trigger

	mu        sync.Mutex
	closed    bool
	scenarios map[string]*scenario
	order     []string
	seq       uint64
	stats     Stats
}

// New builds and starts a controller, resuming any journaled per-scenario
// state. startSeq is the highest decision sequence already journaled, so a
// restarted server keeps numbering where it left off.
func New(cfg Config, restored []State, startSeq uint64, hooks Hooks) *Controller {
	c := &Controller{
		cfg:       cfg.withDefaults(),
		hooks:     hooks,
		scenarios: map[string]*scenario{},
		seq:       startSeq,
	}
	c.searchFn = c.runSearch
	for _, st := range restored {
		sc := c.ensureLocked(st.Scenario)
		sc.preferred = st.Preferred
		sc.tunedFor = st.TunedFor
		sc.decisions = st.Decisions
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.triggers = make(chan *trigger, queueDepth)
	c.wg.Add(1)
	go c.worker()
	return c
}

// ensureLocked returns the scenario, creating it in first-seen order. The
// caller holds c.mu (or, during New, has exclusive access).
func (c *Controller) ensureLocked(key string) *scenario {
	sc := c.scenarios[key]
	if sc == nil {
		sc = &scenario{key: key, shares: map[string]float64{}, specs: map[string]SearchSpec{}}
		c.scenarios[key] = sc
		c.order = append(c.order, key)
	}
	return sc
}

// Observe feeds one completed request into the profile and, when a shift has
// dwelt long enough, enqueues a search trigger. All state advances on
// observation counts — no wall clock — so the decision sequence is a pure
// function of the observation sequence.
func (c *Controller) Observe(o Observation) {
	if o.Scenario == "" || o.Shape == "" {
		return
	}
	var fired bool
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.stats.Observations++
	sc := c.ensureLocked(o.Scenario)
	sc.obs++
	for _, k := range sc.shapeOrder {
		sc.shares[k] *= 1 - alpha
	}
	if _, seen := sc.shares[o.Shape]; !seen {
		sc.shapeOrder = append(sc.shapeOrder, o.Shape)
	}
	sc.shares[o.Shape] += alpha
	sc.specs[o.Shape] = o.Spec
	if sc.tunedFor == "" {
		sc.tunedFor = o.Shape
	}
	switch {
	case sc.cooldown > 0:
		sc.cooldown--
	case sc.searching || sc.obs < int64(c.cfg.MinObs):
		// still converging, or a search for this scenario is in flight
	default:
		dom, share := dominantLocked(sc)
		if dom != sc.tunedFor && share >= shiftAt {
			sc.dwell++
			if sc.dwell >= c.cfg.Dwell {
				sc.dwell = 0
				sc.searching = true
				sc.cooldown = c.cfg.Cooldown
				c.stats.Triggers++
				fired = true
				tr := &trigger{scenario: sc.key, shape: dom, spec: sc.specs[dom],
					incumbent: sc.preferred, obs: sc.obs, profile: roundedShares(sc)}
				select {
				case c.triggers <- tr:
				default:
					// Queue full: drop the trigger and re-arm. A sustained
					// shift re-triggers after the cooldown.
					sc.searching = false
				}
			}
		} else {
			sc.dwell = 0
		}
	}
	c.mu.Unlock()
	c.metric("observation", "")
	if fired {
		c.metric("trigger", "shift")
	}
}

// dominantLocked picks the highest-share shape, first-observed winning ties.
func dominantLocked(sc *scenario) (string, float64) {
	dom, best := "", -1.0
	for _, k := range sc.shapeOrder {
		if sc.shares[k] > best {
			dom, best = k, sc.shares[k]
		}
	}
	return dom, best
}

// roundedShares snapshots the profile at journal precision.
func roundedShares(sc *scenario) map[string]float64 {
	out := make(map[string]float64, len(sc.shares))
	for k, v := range sc.shares {
		out[k] = round6(v)
	}
	return out
}

func round6(v float64) float64 { return math.Round(v*1e6) / 1e6 }

func (c *Controller) metric(kind, label string) {
	if c.hooks.Metric != nil {
		c.hooks.Metric(kind, label)
	}
}

// worker drains triggers one at a time: searches never run concurrently, so
// a burst of shifts across scenarios serializes deterministically.
func (c *Controller) worker() {
	defer c.wg.Done()
	for t := range c.triggers {
		d := c.runTrigger(t)
		c.settle(t, d)
	}
}

// runTrigger executes one search under panic isolation and classifies the
// outcome. A drain cancels through c.ctx: a search that never started (or
// aborted mid-flight) settles as "canceled" and leaves the incumbent alone.
func (c *Controller) runTrigger(t *trigger) (d Decision) {
	d = Decision{Scenario: t.scenario, Cause: "shift", Shape: t.shape, Obs: t.obs,
		Profile: t.profile, Incumbent: t.incumbent, Mapping: t.incumbent}
	defer func() {
		if r := recover(); r != nil {
			d.Outcome = "panicked"
			d.Note = fmt.Sprintf("search panicked: %v", r)
			d.Mapping = t.incumbent
		}
	}()
	if err := c.ctx.Err(); err != nil {
		d.Outcome = "canceled"
		d.Note = "drain before the search started"
		return d
	}
	res, err := c.searchFn(c.ctx, t)
	switch {
	case err != nil && c.ctx.Err() != nil:
		d.Outcome = "canceled"
		d.Note = "drain interrupted the search"
	case err != nil:
		d.Outcome = "failed"
		d.Note = err.Error()
	default:
		d.Enumerated = res.Enumerated
		d.Replayed = res.Replayed
		d.Candidates = res.Candidates
		d.IncumbentMakespan = res.IncumbentMakespan
		d.WinnerMakespan = res.WinnerMakespan
		d.PredictedGain = round6(res.PredictedGain)
		d.MeasuredGain = round6(res.MeasuredGain)
		d.Winner = res.Winner
		if res.Winner != t.incumbent && res.MeasuredGain >= c.cfg.MinGain {
			d.Outcome = "switched"
			d.Mapping = res.Winner
		} else {
			d.Outcome = "held"
		}
	}
	return d
}

// settle publishes a decision: the scenario's preference and tuning anchor
// move, counters advance, and the decision is journaled. On "switched" and
// "held" alike, tunedFor moves to the triggering shape — the scenario has
// been tuned *for* that traffic now (even if tuning changed nothing), so the
// same shift cannot re-trigger and flap.
func (c *Controller) settle(t *trigger, d Decision) {
	c.mu.Lock()
	sc := c.scenarios[t.scenario]
	sc.searching = false
	switch d.Outcome {
	case "switched":
		sc.preferred = d.Mapping
		sc.tunedFor = t.shape
		c.stats.Switched++
	case "held":
		sc.tunedFor = t.shape
		c.stats.Held++
	case "failed":
		c.stats.Failed++
	case "panicked":
		c.stats.Panicked++
	case "canceled":
		c.stats.Canceled++
	}
	sc.decisions++
	c.seq++
	d.Seq = c.seq
	c.mu.Unlock()
	c.metric("search", d.Outcome)
	if d.Outcome == "switched" {
		c.metric("switch", "")
	}
	if c.hooks.Persist != nil {
		c.hooks.Persist(d)
	}
}

// Preferred returns the mapping currently preferred for the scenario, or ""
// for the program's declared decomposition.
func (c *Controller) Preferred(scenario string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sc := c.scenarios[scenario]; sc != nil {
		return sc.preferred
	}
	return ""
}

// Stats snapshots the controller's counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ScenarioStatus is one scenario's introspection view (GET /adapt).
type ScenarioStatus struct {
	Scenario     string
	Observations int64
	TunedFor     string
	Preferred    string `json:",omitempty"`
	Shares       map[string]float64
	Dwell        int
	Cooldown     int
	Searching    bool
	Decisions    int64
}

// Status is the controller's full introspection view.
type Status struct {
	Scenarios []ScenarioStatus
	Stats     Stats
	// Busy reports a search in flight or queued: a harness that needs the
	// controller settled polls until Busy is false.
	Busy bool
}

// Snapshot captures the controller state for the /adapt endpoint.
func (c *Controller) Snapshot() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{Stats: c.stats}
	for _, key := range c.order {
		sc := c.scenarios[key]
		st.Scenarios = append(st.Scenarios, ScenarioStatus{
			Scenario: sc.key, Observations: sc.obs, TunedFor: sc.tunedFor,
			Preferred: sc.preferred, Shares: roundedShares(sc),
			Dwell: sc.dwell, Cooldown: sc.cooldown, Searching: sc.searching,
			Decisions: sc.decisions,
		})
		if sc.searching {
			st.Busy = true
		}
	}
	return st
}

// Close stops the controller: new observations become no-ops, an in-flight
// search is canceled, and queued triggers settle as "canceled" decisions —
// journaled like any other, so a drain never loses a trigger silently.
func (c *Controller) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	// Observe enqueues under c.mu and checks closed first, so after this
	// unlock nothing new can reach the channel.
	close(c.triggers)
	c.mu.Unlock()
	c.cancel()
	c.wg.Wait()
}
