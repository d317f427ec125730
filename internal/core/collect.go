package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/trustedcells/tcq/internal/faultplan"
	"github.com/trustedcells/tcq/internal/obs"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/ssi"
	"github.com/trustedcells/tcq/internal/tds"
	"github.com/trustedcells/tcq/internal/tdscrypto"
)

// The collection phase connects TDSs one by one (in random order, as
// devices come online) until the fleet is exhausted or the SIZE clause is
// satisfied. Simulated time advances by ConnectionInterval between
// successive connections, so a SIZE ... DURATION window genuinely bounds
// how much of the fleet gets to answer. Personal-querybox posts are only
// offered to their targets.
//
// There is one walk, whatever CollectWorkers says. It streams the
// pre-drawn connection order through a window of result slots, waveChunk
// per worker. The run's crew claims positions in connection order, no
// further ahead than the settled front plus the window (or a SIZE tuple
// budget), and runs each device's own work in its slot — the admission
// lookup, local execution, tuple encryption, the deposit MAC — against a
// predicted clock: the last settlement plus the intervals of the devices
// claimed since. The commit thread (worker 0, which claims like the
// others) settles the front strictly in connection order. What happens to
// a device is decided in one place, resolve, at its commit point:
// dropped, refused because revoked, stale, failed, or committed. A slot
// collected against a clock that turns out wrong — an earlier device
// failed and spent no slot — is redone there. Collect is deterministic
// given (device, post, clock), its RNG stream being a function of (Seed,
// device ID, query ID), so metrics, observations, ledger, trace and
// decrypted results are bit-identical for every CollectWorkers setting.
//
// Fault plans ride the same machinery: a Behavior depends only on
// (fault seed, device ID, query ID). Offline devices are filtered out
// before the walk; dropped and corrupt deposits consume a connection slot
// (the device did connect) and advance the clock by the device's interval,
// while a collect error is booked as never having connected at all.

// waveChunk is how many result slots the window holds per worker. Slots
// stay live until they settle, so the window is what the phase adds to the
// heap. On the benchmark's 2-core box waves of 64 per worker took 13 % more
// off the 2000-device query than 16, and added 35 % to the peak heap of
// the 300-tuples-per-device one.
const waveChunk = 16

// collectWorkers resolves Config.CollectWorkers: 0 means GOMAXPROCS,
// anything below 1 means one.
func (e *Engine) collectWorkers() int {
	if w := e.cfg.CollectWorkers; w != 0 {
		return max(w, 1)
	}
	return runtime.GOMAXPROCS(0)
}

// collectOne runs one device's collection step at the given simulated
// clock, with the collector aimed at the device's deterministic RNG
// stream.
func (e *Engine) collectOne(c *collector, t *tds.TDS, post *protocol.QueryPost,
	cfg tds.CollectConfig, now time.Time) ([]protocol.WireTuple, tds.CollectStats, error) {
	cfg.Now, cfg.Arena, cfg.Scratch, cfg.Rng = now, &c.arena, &c.scratch, c.deviceRng(e.cfg.Seed, t.ID, post.ID)
	return t.Collect(post, cfg)
}

// collectDevice is one eligible, non-offline device with its scripted
// behavior for this query. It is woken into its window slot's device and
// leaves with it, so the walk never accumulates devices. Everything decided
// before that instant — slot order, fault behavior, trace identity — needs
// only the ID.
type collectDevice struct {
	slot int
	id   string
	b    faultplan.Behavior
}

// step is the simulated time this device's connection slot occupies: the
// base interval, inflated for scripted-slow devices.
func (d collectDevice) step(interval time.Duration) time.Duration {
	if d.b.SlowFactor == 1 {
		return interval
	}
	return time.Duration(float64(interval) * d.b.SlowFactor)
}

// fate is what the walk does with a device at its connection slot.
type fate int

const (
	// fateDrop: connected, then vanished mid-transfer. The slot is spent.
	fateDrop fate = iota
	// fateRefused: revoked, so the SSI refuses the connection outright —
	// no grace for revocation, no slot spent; booked as a collect error.
	fateRefused
	// fateStale: a torn rollout left the device unable to serve the
	// query's epoch; it queues for one retry after the walk.
	fateStale
	// fateError: the device could not answer (dead key epoch, local
	// fault), which is indistinguishable from never having connected.
	fateError
	// fateCommit: the device's sealed deposit goes to the SSI.
	fateCommit
)

// collectResult is one window slot: what a worker's collection step at a
// predicted clock left there, and what the commit thread resolved it to.
type collectResult struct {
	t       *tds.TDS  // the window slot's device, for the walk's whole life
	awake   bool      // t is aimed at the position's fleet slot, rows loaded
	specNow time.Time // the clock the slot was collected against
	ran     bool      // tuples, stats and err are Collect's outcome at specNow
	tuples  []protocol.WireTuple
	stats   tds.CollectStats
	err     error
	sum     uint64                     // the transport checksum of tuples, sealed with commit
	commit  [tdscrypto.CommitSize]byte // the device's deposit MAC over tuples, once sealed
	sealed  bool                       // commit and epoch were computed over tuples
	epoch   int                        // the wire epoch commit binds
	fate    fate
	dep     protocol.Deposit // the envelope, which the SSI does not keep
}

// collectionPhase drives the collection phase of one query and settles the
// coverage account: how much of the eligible fleet the covering result
// represents, and whether that clears the fault plan's floor. The
// simulated clock advances to the instant the walk ended.
func (e *Engine) collectionPhase(ctx context.Context, rs *runState, cfgTpl tds.CollectConfig) error {
	post, metrics, faults := rs.post, rs.metrics, rs.faults
	start := rs.clock.Now()
	order := rs.rng.Perm(e.fleet.size())
	all := make([]collectDevice, len(order))
	e.life.RLock()
	for i, idx := range order {
		all[i] = collectDevice{slot: idx, id: e.fleet.ids[idx]}
	}
	e.life.RUnlock()
	devices := all[:0] // filtered in place
	for _, d := range all {
		if !post.TargetedTo(d.id) {
			continue
		}
		metrics.EligibleDevices++
		d.b = faults.For(d.id, post.ID)
		if d.b.Offline {
			// An offline window covering the query: the device never
			// connects, so it occupies no connection slot at all. The
			// engine knows its fault script hit; the SSI never saw it.
			metrics.OfflineDevices++
			e.tracer.EngineEvent(post.ID, "fault-"+d.b.Label(), d.id, start, obs.CipherFacts{})
			continue
		}
		devices = append(devices, d)
	}

	// One stale rule: a device that cannot serve the post's epoch is
	// queued for a retry whenever a rotation may be moving the fleet —
	// the run scripts one, or one was in progress as the walk began.
	rs.rotating = rs.rotScript != nil || e.rotationInProgress()
	n := int64(len(devices)) // how many can deposit, each deposit holding a tuple or more
	if limit := post.Size.MaxTuples; limit > 0 {
		n = min(n, limit)
	}
	e.tracer.Reserve(post.ID, int(n)) // about one event each
	if rs.verify {
		rs.integ.records = make([]depositRecord, 0, n)
	}

	w := e.newCollectWalk(rs, cfgTpl, devices)
	defer w.close()
	end, err := w.run(ctx, start)
	if err == nil && len(rs.staleQ) > 0 {
		// Devices a torn rollout caught on the wrong epoch get one retried
		// connection each, after the walk, in their original order.
		end, err = w.retryStale(ctx, end)
	}
	if err != nil {
		return err
	}
	rs.clock.AdvanceTo(end)

	if metrics.EligibleDevices > 0 {
		metrics.CoverageRatio = float64(metrics.DepositedDevices) / float64(metrics.EligibleDevices)
		if faults != nil && faults.CoverageFloor > 0 && metrics.CoverageRatio < faults.CoverageFloor {
			return fmt.Errorf("%w: %.3f of the eligible fleet deposited, floor is %.3f",
				ErrCoverageBelowFloor, metrics.CoverageRatio, faults.CoverageFloor)
		}
	}
	return nil
}

// acceptDeposit folds one accepted deposit into the metrics, the trace
// and the verification records. The byte volume billed is the envelope's
// full ciphertext — what the SSI actually watched arrive, whether or not
// the SIZE cap truncated the accepted count.
func (e *Engine) acceptDeposit(rs *runState, d collectDevice, r *collectResult, accepted int,
	now time.Time, attempt int) {
	sent, sentBytes := len(r.tuples), protocol.TotalSize(r.tuples)
	rs.metrics.Nt += int64(accepted)
	if accepted == sent {
		rs.metrics.TrueTuples += int64(r.stats.True)
	}
	rs.metrics.DepositedDevices++
	rs.metrics.CollectBytes += int64(sentBytes)
	rs.recordDepositCommit(d.id, r, accepted, attempt, sentBytes)
	e.tracer.SSIEvent(rs.post.ID, "deposit", d.id, now,
		obs.CipherFacts{Tuples: accepted, Bytes: int64(sentBytes), Attempt: attempt})
}

// recordRejected accounts an envelope the SSI rejected. The rejection does
// not abort the collection: the querybox stays open and the walk proceeds.
// A revoked device's deposit lands here when the fault plan scripts it to
// keep depositing past its expulsion — the SSI's admit gate is the line
// of defense, and the "deposit-revoked" ledger entry proves it held.
func (e *Engine) recordRejected(rs *runState, d collectDevice, now time.Time, err error, attempt int) {
	kind := "deposit-stale"
	switch {
	case errors.Is(err, ssi.ErrCorruptDeposit):
		kind = "deposit-corrupt"
		rs.metrics.CorruptDeposits++
	case errors.Is(err, ssi.ErrRevokedDeposit):
		kind = "deposit-revoked"
	}
	e.record(rs, ssi.LedgerEntry{
		Kind: kind, Phase: "collection", Device: d.id, Attempt: attempt, At: now,
	})
}

// recordStaleDevice accounts a device that connected while a torn rollout
// left it unable to serve this query's epoch: it has neither migrated to
// the post's epoch nor kept it as grace material. The connection slot is
// not spent (the SSI refuses before any transfer); the device queues for
// one backoff-billed retry after the walk, by which time the rollout may
// have reached it. The ledger entry makes the degradation auditable.
func (e *Engine) recordStaleDevice(rs *runState, d collectDevice, now time.Time) {
	e.record(rs, ssi.LedgerEntry{
		Kind: "deposit-stale", Phase: "collection", Device: d.id, Attempt: 1, At: now,
	})
	rs.staleQ = append(rs.staleQ, d)
}

// recordDropped accounts a device that connected but vanished
// mid-transfer; the SSI discards the partial deposit after DepositTimeout,
// a timeout and a wait that settle reads off the ledger entry.
func (e *Engine) recordDropped(rs *runState, d collectDevice, now time.Time) {
	rs.metrics.DroppedDeposits++
	e.record(rs, ssi.LedgerEntry{
		Kind: "deposit-timeout", Phase: "collection", Device: d.id,
		Attempt: 1, Wait: rs.faults.DepositWait(), At: now,
	})
}

// revokedAllowed reports whether the fault plan scripts revoked devices
// to keep depositing anyway — the adversarial case where the SSI's admit
// gate, not the engine-side connection refusal, must hold the line.
func (rs *runState) revokedAllowed() bool {
	return rs.rotScript != nil && rs.rotScript.RevokedDeposits
}

// collectWalk is the state of one query's collection walk: the workers'
// collectors, the window, and what claiming from it shares.
type collectWalk struct {
	e       *Engine
	rs      *runState
	cfgTpl  tds.CollectConfig
	devices []collectDevice // the connection order
	// cols holds a collector per worker (rs.cols); cols[0], the commit
	// thread's, also serves every commit-point redo and the stale retries.
	cols []*collector
	res  []collectResult // the window, from the engine's walkers: each slot a device and a tuple buffer
	done []atomic.Int64  // one past the last position collected in each slot
	deps []*protocol.Deposit

	mu      sync.Mutex
	room    sync.Cond // helpers wait on it for the window to move
	ready   sync.Cond // the commit thread waits on it for a claimed slot
	next    int       // the next position to claim
	horizon int       // positions below it may be claimed
	spec    time.Time // the clock predicted for position next
	stop    bool      // the walk has ended
}

// newCollectWalk readies a walk over the devices, in connection order.
func (e *Engine) newCollectWalk(rs *runState, cfgTpl tds.CollectConfig, devices []collectDevice) *collectWalk {
	workers := max(min(rs.crew.n, len(devices)), 1)
	window := max(min(workers*waveChunk, len(devices)), 1)
	w := &collectWalk{e: e, rs: rs, cfgTpl: cfgTpl, devices: devices,
		cols: e.collectors.take(workers, newCollector),
		res:  e.walkers.take(window, func() collectResult { return collectResult{t: e.newShell()} }),
		done: make([]atomic.Int64, window),
	}
	w.room.L, w.ready.L = &w.mu, &w.mu
	rs.cols = w.cols
	return w
}

// close gives the window's slots back, their devices forgetting the query
// and their tuple buffers emptied, so an idle slot pins no arena block.
func (w *collectWalk) close() {
	for i, r := range w.res {
		r.t.Forget()
		clear(r.tuples[:cap(r.tuples)])
		w.res[i] = collectResult{t: r.t, tuples: r.tuples[:0]}
	}
	w.e.walkers.put(w.res)
}

// slot is position p's result slot.
func (w *collectWalk) slot(p int) *collectResult { return &w.res[p%len(w.res)] }

// finished reports whether position p has been collected.
func (w *collectWalk) finished(p int) bool { return w.done[p%len(w.res)].Load() == int64(p+1) }

// run walks the devices in connection order from the simulated instant
// now and returns the instant the walk ended: the commit thread settles
// while the crew's helpers collect ahead of it.
func (w *collectWalk) run(ctx context.Context, now time.Time) (time.Time, error) {
	w.spec = now
	w.publish(0, 0)
	var err error
	w.rs.crew.all(len(w.cols), func(k int) {
		if k == 0 {
			now, err = w.commit(ctx, now)
		}
		w.mu.Lock()
		defer w.mu.Unlock()
		if k == 0 {
			w.stop = true // the helpers leave at their next claim
			w.room.Broadcast()
		}
		w.work(w.cols[k], &w.room, func() bool { return w.stop || w.next == len(w.devices) })
	})
	return now, err
}

// commit is the commit thread: it settles the window's front in runs, in
// connection order.
func (w *collectWalk) commit(ctx context.Context, now time.Time) (time.Time, error) {
	rs := w.rs
	// With a zero interval and no scripted rotation no commit can change
	// what the next device meets: the clock stands still and no rotation
	// fires. A run then settles under one SSI lock acquisition: half the
	// window or more (all of it for a lone commit thread) and what is ready
	// behind that. Otherwise a run is one device.
	target, batch := 1, w.e.cfg.ConnectionInterval == 0 && rs.rotScript == nil
	if batch {
		target = max(len(w.res)/2, waveChunk)
	}
	for front := 0; front < len(w.devices); {
		if rs.ssi.CollectionDone(rs.post.ID, now) {
			break
		}
		if err := ctxErr(ctx); err != nil {
			return now, err
		}
		w.mu.Lock()
		end := min(front+target, w.horizon)
		for p := front; p < end; p++ {
			w.work(w.cols[0], &w.ready, func() bool { return w.finished(p) })
		}
		w.mu.Unlock()
		for batch && end < len(w.devices) && w.finished(end) {
			end++
		}
		var pred time.Duration
		for p := front; p < end; p++ {
			r := w.slot(p)
			pred += w.devices[p].step(w.e.cfg.ConnectionInterval)
			var err error
			if r.fate, err = w.resolve(w.devices[p], r, now, 1); err != nil {
				return now, err
			}
		}
		step, done, err := w.settle(w.devices[front:end], front, now, 1)
		if err != nil || done {
			return now, err
		}
		now, front = now.Add(step), end
		w.publish(front, step-pred)
	}
	return now, nil
}

// publish opens the window behind a settled front, no further than the
// tuples a SIZE clause still admits could reach (a deposit carries one or
// more), and corrects the clock predicted for later claims by drift.
func (w *collectWalk) publish(front int, drift time.Duration) {
	ahead := int64(len(w.res))
	if limit := w.rs.post.Size.MaxTuples; limit > 0 {
		ahead = max(min(ahead, limit-w.rs.metrics.Nt), 1)
	}
	w.mu.Lock()
	w.horizon = min(front+int(ahead), len(w.devices))
	w.spec = w.spec.Add(drift)
	w.room.Broadcast()
	w.mu.Unlock()
}

// work claims positions in order and collects them with c until enough,
// waiting on wait while nothing below the horizon is left. A claimed slot
// keeps only its tuple buffer and is stamped with its predicted clock
// (every device is predicted to spend its slot). w.mu is held, but not
// while collecting.
func (w *collectWalk) work(c *collector, wait *sync.Cond, enough func() bool) {
	for !enough() {
		p := w.next
		if w.stop || p >= w.horizon {
			wait.Wait()
			continue
		}
		r := w.slot(p)
		*r = collectResult{t: r.t, specNow: w.spec, tuples: r.tuples[:0]}
		w.next++
		w.spec = w.spec.Add(w.devices[p].step(w.e.cfg.ConnectionInterval))
		w.mu.Unlock()
		w.collectSlot(c, p)
		w.mu.Lock()
		w.done[p%len(w.res)].Store(int64(p + 1))
		w.ready.Signal()
	}
}

// refused reports whether the SSI refuses the device's connection
// outright: it is revoked, and no script keeps it depositing regardless
// (a script only ever covers the first attempt).
func (w *collectWalk) refused(d collectDevice, attempt int) bool {
	return w.e.isRevoked(d.id) && (attempt > 1 || !w.rs.revokedAllowed())
}

// seal computes what the device attaches to the tuples it uploads: the
// transport checksum and its MAC.
func (r *collectResult) seal(post *protocol.QueryPost, attempt int) {
	r.sum = protocol.Checksum(r.tuples)
	r.epoch, r.sealed = r.t.CommitDeposit(&r.commit, post, attempt, r.tuples), true
}

// collectSlot is a worker's whole job for position p: wake the device,
// collect, and seal the deposit — all of it the device's own work, none of
// it the commit thread's. A device expected to deposit nothing — it drops
// its deposit, or the SSI refuses it — is not woken.
func (w *collectWalk) collectSlot(c *collector, p int) {
	d, r := w.devices[p], w.slot(p)
	if d.b.DropDeposit || w.refused(d, 1) {
		return
	}
	if w.e.wake(r.t, d.slot) != nil {
		return // resolve tries again at the commit point and reports it in walk order
	}
	r.awake = true
	w.collect(c, r, r.specNow)
	if r.err == nil {
		r.seal(w.rs.post, 1)
	}
}

// collect runs the slot's device at now, into the slot's own tuple
// buffer, which the slot keeps from run to run.
func (w *collectWalk) collect(c *collector, r *collectResult, now time.Time) {
	cfg := w.cfgTpl
	cfg.Out = r.tuples[:0]
	r.tuples, r.stats, r.err = w.e.collectOne(c, r.t, w.rs.post, cfg, now)
	r.ran, r.specNow, r.sealed = true, now, false
}

// resolve decides what the walk does with a device at its commit point
// (the simulated instant now, the device's attempt-th connection), and
// leaves a slot that resolves to fateCommit holding exactly what a
// one-device-at-a-time walk would deposit: tuples collected at now by the
// device in its commit-point state, sealed under the epoch it is on. The
// claimed step's outcome is used when it is that; otherwise the step is
// redone here. It books nothing.
func (w *collectWalk) resolve(d collectDevice, r *collectResult, now time.Time, attempt int) (fate, error) {
	e, rs := w.e, w.rs
	post := rs.post
	switch {
	case d.b.DropDeposit:
		return fateDrop, nil
	case w.refused(d, attempt):
		return fateRefused, nil
	}
	if r.awake && rs.rotating {
		// A rotation's waves land at commit points, so one may have
		// migrated the slot since it was claimed: re-key it.
		e.aim(r.t, d.slot)
	} else if !r.awake {
		if err := e.wake(r.t, d.slot); err != nil {
			return 0, err
		}
		r.awake = true
	}
	if attempt > 1 || (rs.rotating && e.rotationInProgress()) {
		e.life.RLock()
		serves := e.slotServes(d.slot, post.Epoch)
		e.life.RUnlock()
		switch {
		case !serves && attempt > 1:
			return fateError, nil // still stale on its retry
		case !serves:
			return fateStale, nil
		}
	}
	if !r.ran || !r.specNow.Equal(now) || (rs.rotating && r.err != nil) {
		// Never collected, collected against another clock, or failed in
		// what may have been the device's pre-migration state.
		w.collect(w.cols[0], r, now)
	}
	if r.err != nil {
		return fateError, nil
	}
	if !r.sealed || r.epoch != r.t.Epoch() {
		r.seal(post, attempt)
	}
	return fateCommit, nil
}

// settle books a run of resolved devices, whose slots start at position
// first and which all connect at now:
// the envelopes of those that deposit go through the SSI in one call, and
// every outcome is booked in connection order — through the device whose
// deposit hit the SIZE cap and no further, exactly the devices a
// one-at-a-time walk reaches. Each envelope that reaches the SSI is one
// tick of the scripted-rotation trigger clock, which therefore strikes
// the same logical instant at any worker count. It returns the simulated
// time the run's connection slots spent and whether the collection
// completed.
func (w *collectWalk) settle(run []collectDevice, first int, now time.Time,
	attempt int) (time.Duration, bool, error) {
	e, rs := w.e, w.rs
	deps := w.deps[:0]
	for j, d := range run {
		if r := w.slot(first + j); r.fate == fateCommit {
			// The envelope declares the epoch the device's MAC binds —
			// during a rotation grace window that may be the previous
			// epoch, which the SSI's grace policy admits.
			r.dep = protocol.Deposit{QueryID: rs.post.ID, DeviceID: d.id, Attempt: attempt,
				Epoch: r.epoch, Tuples: r.tuples, Sum: r.sum, Commit: r.commit[:]}
			if d.b.CorruptDeposit {
				r.dep.Sum ^= 0x1 // one flipped transport bit; the checksum catches it
			}
			deps = append(deps, &r.dep)
		}
	}
	w.deps = deps
	out, doneAt, done, err := rs.ssi.DepositEnvelopeBatch(rs.post.ID, deps, now)
	if err != nil {
		return 0, false, err
	}
	var spent time.Duration
	b := 0 // the next envelope to book
	for j, d := range run {
		if done && b > doneAt {
			break // doneAt is -1 when the collection was complete before the run
		}
		switch r := w.slot(first + j); r.fate {
		case fateDrop:
			e.recordDropped(rs, d, now)
		case fateStale:
			e.recordStaleDevice(rs, d, now)
			continue
		case fateRefused, fateError:
			e.recordCollectError(rs, d, now)
			continue
		default:
			if out[b].Err != nil {
				e.recordRejected(rs, d, now, out[b].Err, attempt)
			} else {
				e.acceptDeposit(rs, d, r, out[b].Accepted, now, attempt)
			}
			b++
			if err := e.scriptedRotation(rs, now); err != nil {
				return spent, done, err
			}
		}
		spent += d.step(w.e.cfg.ConnectionInterval) // the device did connect
	}
	return spent, done, nil
}

// retryStale drains the stale queue after the main walk: devices that
// connected while a torn rollout left them unable to serve the query's
// epoch get one more connection, in their original order, each billed a
// second-attempt backoff. By now the scripted waves (or a completed
// rollout) may have migrated them; a device still stale — or revoked
// meanwhile — degrades to the collect-error account, never to a wrong
// answer.
func (w *collectWalk) retryStale(ctx context.Context, now time.Time) (time.Time, error) {
	rs := w.rs
	wait := rs.faults.RetryWait(2)
	queue := rs.staleQ
	rs.staleQ = nil
	for i := range queue {
		if rs.ssi.CollectionDone(rs.post.ID, now) {
			break
		}
		if err := ctxErr(ctx); err != nil {
			return now, err
		}
		r := &w.res[0] // woken afresh: the rollout may have reached the slot since it queued
		*r = collectResult{t: r.t, tuples: r.tuples[:0]}
		var err error
		if r.fate, err = w.resolve(queue[i], r, now.Add(wait), 2); err != nil {
			return now, err
		}
		var billed time.Duration
		if r.ran {
			// The retry went ahead; one that cannot proceed bills no backoff.
			billed = wait
			now = now.Add(wait)
		}
		// The device is booked by how this connection ends, not by the
		// provisional deposit-stale mark it queued with: the ledger says so.
		w.e.record(rs, ssi.LedgerEntry{
			Kind: "deposit-retry", Phase: "collection", Device: queue[i].id,
			Attempt: 2, Wait: billed, At: now,
		})
		step, done, err := w.settle(queue[i:i+1], 0, now, 2)
		if err != nil {
			return now, err
		}
		if done {
			break
		}
		now = now.Add(step)
	}
	return now, nil
}
