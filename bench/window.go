package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/trustedcells/tcq/internal/core"
	"github.com/trustedcells/tcq/internal/storage"
)

// setupRuns is how many times an untraced run sets up; setup_s is the
// median, and the window runs on the last fixture.
const setupRuns = 3

// extraWarmups run on the measured fixture between set-up and the
// window, so the window starts on a steady heap.
const extraWarmups = 5

// result is one run's outcome in the shape the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// done is what a client keeps of one finished query: enough to check the
// answer after the window, and nothing that would hold the response's
// trace and journal alive while the heap is being measured.
type done struct {
	slot   int
	wallMs float64
	heapMB float64 // live heap read right after the query
	err    error
	rows   []storage.Row
	sim    simMetrics
}

// simMetrics are the simulated-clock outputs of one query. They are a
// pure function of (seed, QueryID): the window checks that every visit
// of a ring slot repeats them exactly.
type simMetrics struct {
	tq, tlocal time.Duration
	load       int64
}

func simOf(resp *core.Response) simMetrics {
	m := resp.Metrics
	return simMetrics{tq: m.TQ, tlocal: m.TLocal, load: m.LoadBytes}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// liveHeapMB reads the heap the last garbage collection found live: a
// stable reading of what the program holds, unlike the in-use heap, which
// swings with where in a GC cycle the read lands.
func liveHeapMB(s []metrics.Sample) float64 {
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// runWindow is the untraced run: set up setupRuns times, then drive the
// workload's closed loop for the given duration and check every answer.
func runWindow(s *spec, seed int64, window time.Duration) (*result, error) {
	var fx *fixture
	var setups []float64
	for r := 0; r < setupRuns; r++ {
		if fx != nil {
			fx.close()
		}
		start := time.Now()
		var err error
		if fx, err = setup(s, seed, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer fx.close()

	want, err := expectations(fx, s.ring)
	if err != nil {
		return nil, err
	}
	for j := 0; j < extraWarmups; j++ {
		req := fx.request(j)
		req.QueryID = fmt.Sprintf("%s-%d-x%d", s.name, seed, j)
		if _, err := fx.do(req); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", req.QueryID, err)
		}
	}

	// One goroutine per client, no background samplers: each client owns
	// the ring slots congruent to its index, so a pinned QueryID is never
	// in flight twice.
	clients := s.clients()
	perClient := make([][]done, clients)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			heap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
			for slot := c; time.Now().Before(deadline); slot += clients {
				if slot >= s.ring {
					slot = c
				}
				t0 := time.Now()
				resp, err := fx.do(fx.request(slot))
				d := done{slot: slot, wallMs: float64(time.Since(t0).Nanoseconds()) / 1e6, err: err}
				if err == nil {
					d.rows, d.sim = resp.Result.Rows, simOf(resp)
				}
				d.heapMB = liveHeapMB(heap)
				perClient[c] = append(perClient[c], d)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)

	// Check every answer, and that every visit of a slot repeated the
	// slot's simulated metrics.
	res := &result{Metrics: map[string]metric{}}
	sims := make([]*simMetrics, s.ring)
	var walls, heaps []float64
	for _, ds := range perClient {
		for i := range ds {
			d := &ds[i]
			res.Attempted++
			err := d.err
			if err == nil {
				err = want[d.slot].check(d.rows, d.sim.tq)
			}
			if err == nil && sims[d.slot] != nil && *sims[d.slot] != d.sim {
				err = fmt.Errorf("simulated metrics %+v, earlier visit %+v", d.sim, *sims[d.slot])
			}
			if err != nil {
				res.Failed++
				logf("FAIL %s slot %d: %v", s.name, d.slot, err)
				continue
			}
			sims[d.slot] = &d.sim
			walls = append(walls, d.wallMs)
			heaps = append(heaps, d.heapMB)
		}
	}
	res.Correct = res.Failed == 0
	logf("%s: %d queries in %.1f s, %d clients, %d failed", s.name, res.Attempted, elapsed.Seconds(), clients, res.Failed)
	if !res.Correct {
		return res, nil
	}

	p50, p90, err := wallPercentiles(walls)
	if err != nil {
		return nil, err
	}
	var tq, tlocal, load float64
	for slot, sm := range sims {
		if sm == nil {
			return nil, fmt.Errorf("ring slot %d never ran: the window is too short for a ring of %d", slot, s.ring)
		}
		tq += sm.tq.Seconds() * 1e3
		tlocal += sm.tlocal.Seconds() * 1e3
		load += float64(sm.load) / 1e6
	}
	n := float64(len(walls))
	ring := float64(s.ring)
	res.set("setup_s", median(setups))
	res.set("query_wall_ms_p50", p50)
	res.set("query_wall_ms_p90", p90)
	res.set("queries_per_s", n/elapsed.Seconds())
	res.set("cpu_ms_per_query", (cpu1-cpu0).Seconds()*1e3/n)
	res.set("allocs_per_query", float64(ms1.Mallocs-ms0.Mallocs)/n)
	res.set("alloc_kb_per_query", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e3/n)
	// The 90th percentile, not the maximum: a high-water mark that one
	// collection landing mid-query does not move.
	sort.Float64s(heaps)
	res.set("peak_heap_mb", percentile(heaps, 0.90))
	res.set("sim_tq_ms", tq/ring)
	res.set("sim_tlocal_ms", tlocal/ring)
	res.set("sim_load_mb", load/ring)
	return res, nil
}
