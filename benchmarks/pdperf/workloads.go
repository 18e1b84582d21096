package main

import (
	"embed"
	"encoding/json"
	"fmt"

	"procdecomp/internal/autotune"
	"procdecomp/internal/bench"
	"procdecomp/internal/machine"
)

// Programs the repository does not export live beside the benchmark; each
// file's header comment says why it was chosen.
//
//go:embed programs/*.idn
var programs embed.FS

func mustProgram(name string) string {
	b, err := programs.ReadFile("programs/" + name)
	if err != nil {
		panic(err) // embedded at build time: only a bug can lose it
	}
	return string(b)
}

// workloads lists the four workloads in the order BENCHMARK.json declares
// them. Sizes are fixed here; -scale tiny shrinks them for the tests only.
func workloads(tiny bool) []*workload {
	pick := func(full, small int) int {
		if tiny {
			return small
		}
		return full
	}
	return []*workload{
		{
			name:    "fig6-exec",
			why:     "the paper's Fig. 6/7 points: exec+machine+istruct and the sequential oracle are ~90% of the op, the compiler ~10%, so interpreter/engine work shows here and compiler work barely does",
			clients: 1, warmRounds: 2, tracedRounds: pick(10, 1),
			setup: func(e *env, c *chunker) (*instance, error) { return fig6Instance(e, tiny), nil },
		},
		{
			name:    "map-search",
			why:     "cold decomposition searches: the static walker and per-candidate parse→sem→core→xform dominate and exec/machine is a small share, the mirror image of fig6-exec",
			clients: 1, warmRounds: 2, tracedRounds: pick(10, 1),
			setup: func(e *env, c *chunker) (*instance, error) { return searchInstance(e, tiny), nil },
		},
		{
			name:    "serve-open",
			why:     "request-in to bytes-out on pdserve under an open-loop arrival rate: every op is a cold /run crossing HTTP, admission, queue, worker, the whole pipeline, cache Put and encode",
			clients: 2, rate: 50, limitMS: 1000, warmRounds: pick(16, 2), tracedRounds: pick(8, 1),
			setup: func(e *env, c *chunker) (*instance, error) { return serveOpenInstance(e, c, tiny) },
		},
		{
			name:    "serve-durable",
			why:     "the serve layers used the other way round: journal group-commit writes and cache Puts of durable jobs beside cache-hit reads, so a hit-path gain that taxes writes moves one metric up and one down",
			clients: 2, warmRounds: 2, tracedRounds: pick(40, 1),
			setup: func(e *env, c *chunker) (*instance, error) { return serveDurableInstance(e, c, tiny) },
		},
	}
}

// fig6Instance: op = one Fig. 6/7 point of Gauss-Seidel at N=64, blk=8 —
// compile, run on the simulated machine, validate against the sequential
// interpreter; round = six variants × S∈{2,8,32}.
func fig6Instance(e *env, tiny bool) *instance {
	n, procs := int64(64), []int{2, 8, 32}
	if tiny {
		n, procs = 16, []int{2, 4}
	}
	inst := &instance{close: func() {}}
	for _, spec := range bench.Variants() {
		for _, s := range procs {
			spec, s := spec, s
			id := fmt.Sprintf("fig6/%s/S=%d/N=%d", spec.Name, s, n)
			inst.ops = append(inst.ops, op{id: id, run: func(t *tracer, lane int, salt uint64) (opResult, error) {
				if t == nil {
					pt, err := bench.RunGS(spec.Variant, s, n, bench.DefaultBlk)
					if err != nil {
						return opResult{}, err
					}
					return opResult{Makespan: uint64(pt.Makespan), Messages: pt.Messages}, nil
				}
				root := t.root("fig6 point", id, lane)
				defer root.end()
				return gsPointStaged(t, root, spec, s, n, bench.DefaultBlk)
			}})
		}
	}
	return inst
}

// searchInstance: op = one cold autotune.Search at S=4 with two workers and
// no measurement cache; round = four programs.
func searchInstance(e *env, tiny bool) *instance {
	type prog struct {
		name, src, entry, dist string
		n                      int64
	}
	progs := []prog{
		{"gs", bench.GSSource, "gs_iteration", "Column", 16},
		{"gs", bench.GSSource, "gs_iteration", "Column", 24},
		{"gs-reversed", bench.GSReversedSource, "gs_iteration", "Column", 24},
		{"jacobi", mustProgram("jacobi.idn"), "jacobi", "D", 24},
	}
	if tiny {
		progs = []prog{{"gs", bench.GSSource, "gs_iteration", "Column", 8}, {"jacobi", mustProgram("jacobi.idn"), "jacobi", "D", 8}}
	}
	inst := &instance{close: func() {}}
	for _, p := range progs {
		p := p
		id := fmt.Sprintf("search/%s/S=4/N=%d", p.name, p.n)
		inst.ops = append(inst.ops, op{id: id, run: func(t *tracer, lane int, salt uint64) (opResult, error) {
			// A fresh Workload per op: it memoizes its sequential reference,
			// and a cold search pays for that too.
			w := &autotune.Workload{Name: p.name, Source: p.src, Entry: p.entry, Dist: p.dist,
				Defines: map[string]int64{"N": p.n}}
			cfg := machine.DefaultConfig(4)
			root := t.root("search", id, lane)
			var rep *autotune.Report
			err := t.stage("autotune.Search", root, "autotune.search_ms", ms, "", func() (err error) {
				rep, err = autotune.Search(w, cfg, autotune.Options{Workers: 2})
				return err
			})
			root.end()
			if err != nil {
				return opResult{}, err
			}
			// The winner's measured makespan, and the messages of every
			// candidate the search confirmed on the machine (the winner
			// alone is often a replicated mapping that sends none).
			res := opResult{Winner: rep.Winner}
			for _, r := range rep.Results {
				if r.Candidate.Key() == rep.Winner {
					res.Makespan = r.Measured
				}
				if r.Status == autotune.StatusMeasured {
					res.Messages += r.Messages
				}
			}
			if t != nil {
				if err := searchStaged(t, lane, id, w, cfg, rep); err != nil {
					return opResult{}, err
				}
			}
			return res, nil
		}})
	}
	return inst
}

// serveNs is the grid-size cycle of the cold /run ops.
func serveNs(tiny bool) []int64 {
	if tiny {
		return []int64{8, 12}
	}
	return []int64{24, 32, 40}
}

// serveExpect runs each cold request directly through the library: a /run
// response's Makespan must equal the direct run (and expected.json).
func serveExpect(e *env, c *chunker, ns []int64) error {
	return c.do(func() error {
		for _, n := range ns {
			res, err := libRun(gsBuild(n), n)
			if err == nil {
				err = e.check(serveID(n), res)
			}
			if err != nil {
				return fmt.Errorf("direct library run N=%d: %w", n, err)
			}
		}
		return nil
	})
}

func serveID(n int64) string { return fmt.Sprintf("serve/gs/S=4/opt3/N=%d", n) }

// serveOpenInstance: op = one cold POST /run (inline source + nonce), S=4,
// opt3, N cycling.
func serveOpenInstance(e *env, c *chunker, tiny bool) (*instance, error) {
	ns := serveNs(tiny)
	if err := serveExpect(e, c, ns); err != nil {
		return nil, err
	}
	var sv *server
	if err := c.do(func() (err error) { sv, err = bootServer(e); return err }); err != nil {
		return nil, err
	}
	inst := &instance{close: sv.stop, scrape: sv.scrape}
	for _, n := range ns {
		n := n
		inst.ops = append(inst.ops, op{id: serveID(n), run: func(t *tracer, lane int, salt uint64) (opResult, error) {
			res, _, err := sv.coldRun(t, lane, n, salt)
			if err != nil || t == nil {
				return res, err
			}
			// Traced: replay the same request directly through the library,
			// stage by stage, to split the worker's evaluation by layer.
			root := t.root("cold /run, library replay", rid(salt), lane)
			defer root.end()
			progs, err := compileStaged(t, root, gsBuild(n))
			if err == nil {
				_, err = runStaged(t, root, progs, 4, n)
			}
			return res, err
		}})
	}
	return inst, nil
}

// serveDurableInstance: round = 8 durable jobs interleaved with 40 repeat
// hits on a 64-key set primed in set-up.
func serveDurableInstance(e *env, c *chunker, tiny bool) (*instance, error) {
	jobs, hits, keys, jobN, hitN := 8, 40, 64, int64(32), int64(16)
	if tiny {
		jobs, hits, keys, jobN, hitN = 2, 6, 8, 12, 8
	}
	if err := serveExpect(e, c, []int64{jobN, hitN}); err != nil {
		return nil, err
	}
	var sv *server
	if err := c.do(func() (err error) { sv, err = bootServer(e); return err }); err != nil {
		return nil, err
	}
	// Prime the hit set, in eight pieces. The key set is the same in every
	// run (the nonce is the key's index); the bytes each miss returned are
	// what its hits must repeat.
	type primed struct{ body, want []byte }
	set := make([]primed, keys)
	for lo := 0; lo < keys; lo += keys / 8 {
		lo := lo
		err := c.do(func() error {
			for k := lo; k < lo+keys/8; k++ {
				res, want, err := sv.coldRun(nil, 0, hitN, uint64(k))
				if err == nil {
					err = e.check(serveID(hitN), res)
				}
				if err != nil {
					return fmt.Errorf("priming key %d: %w", k, err)
				}
				body, _ := json.Marshal(gsRequest(hitN, uint64(k))) // plain data: cannot fail
				set[k] = primed{body, want}
			}
			return nil
		})
		if err != nil {
			sv.stop()
			return nil, err
		}
	}
	inst := &instance{close: sv.stop, scrape: sv.scrape}
	every := (jobs + hits) / jobs
	for i, h := 0, 0; i < jobs+hits; i++ {
		if i%every == 0 {
			inst.ops = append(inst.ops, op{id: serveID(jobN), run: func(t *tracer, lane int, salt uint64) (opResult, error) {
				return sv.durableJob(t, lane, jobN, salt)
			}})
			continue
		}
		p := set[(h*37)%keys] // a fixed stride over the key set
		h++
		inst.ops = append(inst.ops, op{id: serveID(hitN), run: func(t *tracer, lane int, salt uint64) (opResult, error) {
			return sv.hit(t, lane, p.body, p.want, salt)
		}})
	}
	return inst, nil
}
