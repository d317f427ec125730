package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/trustedcells/tcq/internal/netsim"
	"github.com/trustedcells/tcq/internal/obs"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/ssi"
	"github.com/trustedcells/tcq/internal/tds"
)

// workUnit is one partition processed by one TDS in some phase.
type workUnit struct {
	out      []protocol.WireTuple
	busy     time.Duration
	down, up int // the partition's and the output's bytes
}

// phaseStats aggregates what a phase cost beyond its work units.
type phaseStats struct {
	Reassigned int           // partitions re-sent after their assignee's crash
	Suspects   []string      // IDs of the replicas outvoted by the audit (compromised-TDS ext.)
	Wait       time.Duration // timeout + backoff bill of the crashes
	span       *obs.Span     // the phase's, which notePhase closes
	in         int           // the tuples its partitions held, each partition counted once
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

// runPhase is the phase step of the generic protocol (Fig. 2, steps 5-12),
// the one every aggregation and filtering phase takes: the SSI builds the
// phase's partitions (build, over the relayed partials in input, or the
// covering result when input is nil) and buildVerified checks them; shape,
// when set, then turns the verified build into the partitions the units
// take; connected TDSs process them, with failures injected and failed
// partitions re-assigned, on the run's crew; notePhase settles the phase,
// and its outputs come back in plan order. Each partition's bytes are
// summed once. process runs inside the chosen TDS; it must be pure
// protocol work.
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
// one returns it: no partition, and no output, is ever abandoned. All
// draws happen sequentially up front, and a failing phase reports its
// first failing assignment in plan order, so the phase is deterministic
// for any worker count.
func (e *Engine) runPhase(ctx context.Context, rs *runState, phase string, input []protocol.WireTuple,
	build func() ([][]protocol.WireTuple, []int32),
	shape func([][]protocol.WireTuple) [][]protocol.WireTuple,
	process func(worker *tds.TDS, part []protocol.WireTuple) ([]protocol.WireTuple, error),
) ([]protocol.WireTuple, phaseStats, error) {
	post, rng, faults := rs.post, rs.rng, rs.faults
	var stats phaseStats
	partitions, err := e.buildVerified(rs, phase, input, build)
	if err != nil {
		return nil, stats, err
	}
	if shape != nil {
		partitions = shape(partitions)
	}
	phaseStart := rs.clock.Now()
	var sizes []int
	stats.span, sizes = e.startPhase(rs, phase, partitions)
	// This draw pool is the one place that decides which device may work a
	// phase. Revoked devices cannot open the current epoch's queries; the
	// SSI never hands them partitions (the revocation list is public). Nor
	// can a device on the wrong side of a live rotation boundary open
	// this query's epoch — drawing it as a worker would turn a staged
	// rollout into a phase failure, so the draw pool is epoch-aware. The
	// live set and the plan hold fleet slots: a slot is woken only on the
	// crew worker processing its assignment. When no device holds the
	// posted epoch's keys (a fleet a rotation's bundle has not reached
	// yet), a phase with work cannot run: any worker drawn would fail to
	// open the query.
	live := make([]int, 0, e.fleet.size())
	e.life.RLock() // one hold for the whole set, not three per slot
	for slot, id := range e.fleet.ids {
		if !e.revoked[id] && e.slotServes(slot, post.Epoch) {
			live = append(live, slot)
		}
	}
	e.life.RUnlock()
	if len(live) == 0 && len(partitions) > 0 {
		return nil, stats, fmt.Errorf("%w: no unrevoked device holds the query's epoch keys", ErrNoEligibleTDS)
	}
	replicas := min(max(e.cfg.AuditReplicas, 1), len(live))

	type task struct {
		part    int // its index in partitions
		attempt int // 1-based assignment count for this partition
	}
	tasks := make([]task, 0, len(partitions))
	for i := range partitions {
		tasks = append(tasks, task{part: i, attempt: 1})
	}

	// Pre-pick worker TDSs and crash decisions deterministically, then let
	// goroutines do the crypto-heavy processing concurrently. Every
	// assignment's workers are drawn into one slab, and its units are filed
	// into one []workUnit at the same offsets: at most one unit per worker.
	type assignment struct {
		part     int   // its index in partitions
		workers  []int // the slots of the replicas processing the same partition
		at, n    int   // its units: units[at : at+n]
		suspects []string
	}
	var plan []assignment
	// Pre-draw enough distinct workers for up to three audit rounds: when
	// a round produces no strict digest majority, the partition is re-sent
	// to the next batch of fresh devices.
	rounds := 1
	if replicas > 1 {
		rounds = 3
	}
	want := min(replicas*rounds, len(live))
	draws := make([]int, 0, want*len(partitions))
	seen := make(map[int]bool, want)    // a one-worker draw cannot repeat a slot
	maxReassign := 10 * len(partitions) // safety valve against crash fractions ~ 1
	for qi := 0; qi < len(tasks); qi++ {
		t := tasks[qi]
		if err := ctxErr(ctx); err != nil {
			return nil, stats, err
		}
		// The first drawn is the primary assignee the crash decision below
		// is about.
		from := len(draws)
		clear(seen)
		for len(draws)-from < want {
			i := rng.Intn(len(live))
			if want > 1 && seen[i] {
				continue
			}
			if want > 1 {
				seen[i] = true
			}
			draws = append(draws, live[i])
		}
		ws := draws[from:len(draws):len(draws)]
		primary := e.fleet.ids[ws[0]]
		if faults != nil && stats.Reassigned < maxReassign &&
			faults.For(primary, post.ID).CrashInPhase {
			// The scripted churn: the primary assignee crashes before
			// committing. The SSI times out, backs off, and re-issues the
			// partition to a fresh draw.
			draws = draws[:from]
			wait := faults.RetryWait(t.attempt)
			at := phaseStart.Add(stats.Wait) // instant the SSI starts waiting this one out
			stats.Wait += wait
			e.record(rs, ssi.LedgerEntry{
				Kind: "reassign", Phase: phase, Device: primary,
				Attempt: t.attempt, Wait: wait, At: at,
			})
			stats.Reassigned++
			tasks = append(tasks, task{part: t.part, attempt: t.attempt + 1})
			continue
		}
		plan = append(plan, assignment{part: t.part, workers: ws, at: from})
	}

	// Each assignment files its units at its own offsets, and they are
	// gathered in plan order after the crew is through: the phase output
	// is independent of completion order, so downstream partitioning (and
	// hence the whole run) is deterministic for any worker count.
	units := make([]workUnit, len(draws))
	if rs.phaseDevs == nil { // one per crew worker, given back when the run ends
		rs.phaseDevs = e.folders.take(rs.crew.n, e.newShell)
	}
	devs := rs.phaseDevs
	err = rs.crew.each(len(plan), func(k, ai int) error {
		a, t := &plan[ai], devs[k]
		part, size := partitions[a.part], sizes[a.part]
		if replicas == 1 { // no audit: one output, nothing to vote on
			e.aim(t, a.workers[0])
			out, err := process(t, part)
			units[a.at], a.n = e.unit(size, out), 1
			return err
		}
		// Audit rounds: process with `replicas` fresh devices per
		// round; a unanimous round is accepted immediately (the common
		// case). Otherwise votes accumulate across rounds — the honest
		// result recurs in every round while independent forgeries
		// rarely repeat — and the globally most-voted output wins.
		allUnits := units[a.at : a.at : a.at+len(a.workers)]
		var keys []string // the digest key of each unit, as of each worker
		tally := make(map[string]int)
		for start := 0; start < len(a.workers); start += replicas {
			unanimous := true
			for _, slot := range a.workers[start:min(start+replicas, len(a.workers))] {
				e.aim(t, slot)
				out, err := process(t, part)
				if err != nil {
					return err
				}
				key := digestKey(out)
				tally[key]++
				keys = append(keys, key)
				unanimous = unanimous && key == keys[start]
				allUnits = append(allUnits, e.unit(size, out))
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
		keep := slices.Index(keys, winnerKey)
		for i := range allUnits {
			if i != keep {
				allUnits[i].out, allUnits[i].up = nil, 0 // a discarded output is no traffic
			}
			if keys[i] != winnerKey {
				a.suspects = append(a.suspects, e.fleet.ids[a.workers[i]])
			}
		}
		a.n = len(allUnits)
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	filed := 0 // an assignment's units never start before the last one's end
	for _, a := range plan {
		stats.Suspects = append(stats.Suspects, a.suspects...)
		stats.in += len(partitions[a.part])
		filed += copy(units[filed:], units[a.at:a.at+a.n])
	}
	var out []protocol.WireTuple
	for _, u := range units[:filed] {
		out = append(out, u.out...)
	}
	e.notePhase(rs, phase, units[:filed], stats)
	return out, stats, nil
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

// unit is the work unit of a partition of down bytes processed into out,
// metered in simulated device time: download + decrypt + compute the
// input, encrypt + upload the output.
func (e *Engine) unit(down int, out []protocol.WireTuple) workUnit {
	var m netsim.Meter
	up := protocol.TotalSize(out)
	m.AddDownload(e.cal, down)
	m.AddDecrypt(e.cal, down)
	m.AddCompute(e.cal, down)
	m.AddEncrypt(e.cal, up)
	m.AddUpload(e.cal, up)
	return workUnit{out: out, busy: m.Total(), down: down, up: up}
}
