package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/trustedcells/tcq/internal/netsim"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/ssi"
	"github.com/trustedcells/tcq/internal/tds"
)

// workUnit is one partition processed by one TDS in some phase.
type workUnit struct {
	partition []protocol.WireTuple
	out       []protocol.WireTuple
	busy      time.Duration
}

// phaseStats aggregates what a phase cost beyond its work units.
type phaseStats struct {
	Reassigned int           // partitions re-sent after their assignee's crash
	Detections int           // replicas outvoted by the audit (compromised-TDS ext.)
	Suspects   []string      // IDs of the outvoted devices
	Wait       time.Duration // timeout + backoff bill of the crashes
}

// crew is a run's host parallelism: the run's goroutine and up to n-1
// helpers, started when first needed and alive until stop, so a helper's
// stack grows once per query. The collection walk, the verifier's leaf
// MACs and the phases run on it, the run's goroutine making one call at a
// time, so a call's state lives here.
type crew struct {
	n, helpers int // Config.CollectWorkers resolved; helpers started so far
	work       chan func()
	exit, busy sync.WaitGroup
	next       atomic.Int32 // the call's next unclaimed index
	failed     atomic.Bool
	mu         sync.Mutex // guards first and err
	first      int        // the lowest failing index so far
	err        error
}

// each runs f(k, i) for every i below n, k naming the worker (0 is the
// caller). Indices are claimed in order, not dealt — a helper that wakes
// late just finds less left to do — until a call fails. The error returned
// is the lowest failing index's, whoever failed first: every index below a
// claimed one was claimed too, and a claimed index always runs.
func (c *crew) each(n int, f func(k, i int) error) error {
	c.next.Store(0)
	c.failed.Store(false)
	c.first, c.err = n, nil
	c.all(n, func(k int) {
		for !c.failed.Load() {
			i := int(c.next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := f(k, i); err != nil {
				c.failed.Store(true)
				c.mu.Lock()
				if i < c.first {
					c.first, c.err = i, err
				}
				c.mu.Unlock()
			}
		}
	})
	return c.err
}

// all runs f(k) once on each of min(n, crew size) workers at once — k = 0
// on the caller — and returns when every one has.
func (c *crew) all(n int, f func(k int)) {
	helpers := min(c.n, n) - 1
	for ; c.helpers < helpers; c.helpers++ {
		if c.work == nil {
			c.work = make(chan func())
		}
		c.exit.Add(1)
		go func() {
			defer c.exit.Done()
			for g := range c.work {
				g()
			}
		}()
	}
	for k := 1; k <= helpers; k++ {
		c.busy.Add(1)
		c.work <- func() {
			defer c.busy.Done()
			f(k)
		}
	}
	f(0)
	c.busy.Wait()
}

// stop ends the helpers and waits for them to leave.
func (c *crew) stop() {
	if c.work != nil {
		close(c.work)
		c.exit.Wait()
	}
}

// runPhase distributes partitions over connected TDSs, injecting failures
// and re-assigning failed partitions; the run's crew does the work.
// process runs inside the chosen TDS; it must be pure protocol work.
//
// With Config.AuditReplicas > 1, every partition is processed by that many
// distinct TDSs; the SSI compares their keyed semantic digests and keeps
// the majority output, outvoting compromised devices (extended threat
// model). Each replica is a real work unit: auditing multiplies P_TDS and
// Load_Q by ~r, the price of the stronger threat model.
//
// An assignee dies one way: the fault plan scripts crash-before-commit, so
// who dies is a function of (fault seed, device, query ID), never of draw
// order. The SSI waits the crash out (Section 3.2, correctness): it bills
// a PhaseTimeout plus capped exponential backoff (phaseStats.Wait), names
// the assignee and the instant it started waiting in a "reassign" ledger
// entry, and re-issues the partition to freshly drawn replacements until
// the plan's MaxAttempts abandons it. All draws happen sequentially up
// front, and a failing phase reports its first failing assignment in plan
// order, so the phase is deterministic for any worker count.
func (e *Engine) runPhase(ctx context.Context, rs *runState, phase string,
	partitions [][]protocol.WireTuple,
	process func(worker *tds.TDS, part []protocol.WireTuple) ([]protocol.WireTuple, error),
) ([]workUnit, phaseStats, error) {
	post, rng, faults := rs.post, rs.rng, rs.faults
	phaseStart := rs.clock.Now()
	var stats phaseStats
	// Revoked devices cannot open the current epoch's queries; the SSI
	// never hands them partitions (the revocation list is public). Nor
	// can a device on the wrong side of a live rotation boundary open
	// this query's epoch — drawing it as a worker would turn a staged
	// rollout into a phase failure, so the draw pool is epoch-aware. The
	// live set holds fleet slots, not devices — packed slots materialize
	// only when actually drawn. When no device holds the posted epoch's
	// keys (a fleet a rotation's bundle has not reached yet), a phase with
	// work cannot run: any worker drawn would fail to open the query.
	live := make([]int, 0, len(e.fleet))
	e.life.RLock() // one hold for the whole set, not three per slot
	for slot := range e.fleet {
		if !e.revoked[e.deviceIDLocked(slot)] && e.slotServesLocked(slot, post.Epoch) {
			live = append(live, slot)
		}
	}
	e.life.RUnlock()
	if len(live) == 0 && len(partitions) > 0 {
		return nil, stats, fmt.Errorf("%w: no unrevoked device holds the query's epoch keys", ErrNoEligibleTDS)
	}
	replicas := min(max(e.cfg.AuditReplicas, 1), len(live))

	type task struct {
		part    []protocol.WireTuple
		attempt int // 1-based assignment count for this partition
	}
	tasks := make([]task, 0, len(partitions))
	for _, p := range partitions {
		tasks = append(tasks, task{part: p, attempt: 1})
	}

	// Pre-pick worker TDSs and crash decisions deterministically, then let
	// goroutines do the crypto-heavy processing concurrently.
	type assignment struct {
		part    []protocol.WireTuple
		workers []*tds.TDS // replicas processing the same partition
	}
	var plan []assignment
	maxReassign := 10 * len(partitions) // safety valve against crash fractions ~ 1
	for qi := 0; qi < len(tasks); qi++ {
		t := tasks[qi]
		if err := ctxErr(ctx); err != nil {
			return nil, stats, err
		}
		// Pre-draw enough distinct workers for up to three audit rounds:
		// when a round produces no strict digest majority, the partition
		// is re-sent to the next batch of fresh devices. The first drawn
		// is the primary assignee the crash decision below is about.
		rounds := 1
		if replicas > 1 {
			rounds = 3
		}
		want := min(replicas*rounds, len(live))
		ws := make([]*tds.TDS, 0, want)
		var seen map[int]bool // a one-worker draw cannot repeat a slot
		if want > 1 {
			seen = make(map[int]bool, want)
		}
		for len(ws) < want {
			i := rng.Intn(len(live))
			if seen[i] {
				continue
			}
			if seen != nil {
				seen[i] = true
			}
			w, err := e.runDevice(rs, live[i])
			if err != nil {
				return nil, stats, err
			}
			ws = append(ws, w)
		}
		if faults != nil && stats.Reassigned < maxReassign &&
			faults.For(ws[0].ID, post.ID).CrashInPhase {
			// The scripted churn: the primary assignee crashes before
			// committing. The SSI times out, backs off, and re-issues the
			// partition to a fresh draw — or abandons it past MaxAttempts.
			wait := faults.RetryWait(t.attempt)
			at := phaseStart.Add(stats.Wait) // instant the SSI starts waiting this one out
			stats.Wait += wait
			e.record(rs, ssi.LedgerEntry{
				Kind: "reassign", Phase: phase, Device: ws[0].ID,
				Attempt: t.attempt, Wait: wait, At: at,
			})
			if max := faults.MaxAttempts; max > 0 && t.attempt >= max {
				e.record(rs, ssi.LedgerEntry{
					Kind: "partition-abandoned", Phase: phase,
					Device: ws[0].ID, Attempt: t.attempt,
					At: phaseStart.Add(stats.Wait),
				})
				continue
			}
			stats.Reassigned++
			tasks = append(tasks, task{part: t.part, attempt: t.attempt + 1})
			continue
		}
		plan = append(plan, assignment{part: t.part, workers: ws})
	}

	// Each assignment gets its own result slot, and the slots are flattened
	// in plan order after the crew is through: the phase output is
	// independent of completion order, so downstream partitioning (and hence
	// the whole run) is deterministic for any worker count.
	type phaseResult struct {
		units    []workUnit
		suspects []string
	}
	results := make([]phaseResult, len(plan))
	err := rs.crew.each(len(plan), func(_, ai int) error {
		a := plan[ai]
		if replicas == 1 { // no audit: one output, nothing to vote on
			out, err := process(a.workers[0], a.part)
			results[ai].units = []workUnit{{partition: a.part, out: out, busy: e.meterUnit(a.part, out)}}
			return err
		}
		// Audit rounds: process with `replicas` fresh devices per
		// round; a unanimous round is accepted immediately (the common
		// case). Otherwise votes accumulate across rounds — the honest
		// result recurs in every round while independent forgeries
		// rarely repeat — and the globally most-voted output wins.
		var allUnits []workUnit
		var voters []string // worker ID per vote, parallel to keys
		var keys []string
		tally := make(map[string]int)
		repr := make(map[string]int) // digest key -> index in allUnits
		for start := 0; start < len(a.workers); start += replicas {
			batch := a.workers[start:min(start+replicas, len(a.workers))]
			unanimous := true
			var firstKey string
			for i, w := range batch {
				out, err := process(w, a.part)
				if err != nil {
					return err
				}
				key := digestKey(out)
				if i == 0 {
					firstKey = key
				} else if key != firstKey {
					unanimous = false
				}
				tally[key]++
				keys = append(keys, key)
				voters = append(voters, w.ID)
				if _, ok := repr[key]; !ok {
					repr[key] = len(allUnits)
				}
				allUnits = append(allUnits, workUnit{
					partition: a.part,
					out:       out,
					busy:      e.meterUnit(a.part, out),
				})
			}
			if unanimous {
				break
			}
		}
		// Pick the globally most-voted key; clear the outputs of every
		// unit that did not produce it (their replicas' work is spent
		// but their result is discarded — and their producer flagged).
		var winnerKey string
		winnerVotes := -1
		for k, v := range tally {
			if v > winnerVotes || (v == winnerVotes && k < winnerKey) {
				winnerKey, winnerVotes = k, v
			}
		}
		keep := repr[winnerKey]
		var suspects []string
		for i := range allUnits {
			if i != keep {
				allUnits[i].out = nil
			}
			if keys[i] != winnerKey {
				suspects = append(suspects, voters[i])
			}
		}
		results[ai] = phaseResult{units: allUnits, suspects: suspects}
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	var units []workUnit
	for _, r := range results {
		stats.Detections += len(r.suspects)
		stats.Suspects = append(stats.Suspects, r.suspects...)
		units = append(units, r.units...)
	}
	return units, stats, nil
}

// digestKey canonicalizes an output's semantic digest set for vote
// comparison.
func digestKey(out []protocol.WireTuple) string {
	ds := make([]string, 0, len(out))
	for _, w := range out {
		ds = append(ds, string(w.Digest))
	}
	sort.Strings(ds)
	return strings.Join(ds, "|")
}

// meterUnit accounts the simulated device time of processing one
// partition: download + decrypt + compute the input, encrypt + upload the
// output.
func (e *Engine) meterUnit(in, out []protocol.WireTuple) time.Duration {
	var m netsim.Meter
	inBytes, outBytes := protocol.TotalSize(in), protocol.TotalSize(out)
	m.AddDownload(e.cal, inBytes)
	m.AddDecrypt(e.cal, inBytes)
	m.AddCompute(e.cal, inBytes)
	m.AddEncrypt(e.cal, outBytes)
	m.AddUpload(e.cal, outBytes)
	return m.Total()
}

// collectOutputs flattens phase outputs in deterministic partition order.
func collectOutputs(units []workUnit) []protocol.WireTuple {
	var out []protocol.WireTuple
	for _, u := range units {
		out = append(out, u.out...)
	}
	return out
}
