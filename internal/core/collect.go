package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"github.com/trustedcells/tcq/internal/faultplan"
	"github.com/trustedcells/tcq/internal/obs"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/ssi"
	"github.com/trustedcells/tcq/internal/tds"
)

// The collection phase connects TDSs one by one (in random order, as
// devices come online) until the fleet is exhausted or the SIZE clause is
// satisfied. Simulated time advances by ConnectionInterval between
// successive connections, so a SIZE ... DURATION window genuinely bounds
// how much of the fleet gets to answer. Personal-querybox posts are only
// offered to their targets.
//
// There is one walk, whatever CollectWorkers says. It takes the pre-drawn
// connection order a wave at a time. A wave is waveChunk devices per
// worker — its width is not the worker count — cut down to what is left
// of a SIZE tuple budget. The workers are the run's crew and share
// the wave out among themselves; each runs its devices' own work — the
// admission lookup, local execution, tuple encryption, the deposit MAC —
// against a speculative clock: wave start plus the connection intervals
// of the earlier members expected to spend a slot. The commit thread
// (worker 0, which collects like the others) then settles the wave
// strictly in connection order. What happens to a device is decided in
// one place, resolve, at its commit point: dropped, refused because
// revoked, stale, failed, or committed. A member whose speculative clock
// turns out wrong — an earlier one failed, so simulated time advanced less
// than predicted — re-bases the rest of the wave: it is speculated again
// from the actual clock, now predicting that what failed fails again.
// Collect is deterministic given (device, post, clock), its RNG stream
// being a function of (Seed, device ID, query ID), so whatever is redone
// yields exactly what a one-device-at-a-time engine would have produced:
// metrics, observations, ledger, trace and decrypted results are
// bit-identical for every CollectWorkers setting.
//
// Fault plans ride the same machinery: a Behavior depends only on
// (fault seed, device ID, query ID). Offline devices are filtered out
// before the walk; dropped and corrupt deposits consume a connection slot
// (the device did connect) and advance the clock by the device's interval,
// while a collect error is booked as never having connected at all.

// waveChunk is how many devices a wave holds per worker. A wave's results
// stay live until it settles, so its width is what the phase adds to the
// heap; the hand-off and barrier each wave costs is what a wider one
// saves. On the benchmark's 2-core box 64 takes 13 % more off the
// 2000-device query than 16 does, and adds 35 % to the peak heap of the
// 300-tuples-per-device one.
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
	cfgTpl tds.CollectConfig, now time.Time) ([]protocol.WireTuple, tds.CollectStats, error) {
	cfg := cfgTpl
	cfg.Now = now
	cfg.Arena = &c.arena
	cfg.Rng = c.deviceRng(e.cfg.Seed, t.ID, post.ID)
	return t.Collect(post, cfg)
}

// collectDevice is one eligible, non-offline device with its scripted
// behavior for this query. In a packed fleet t stays nil: the device is
// materialized into its wave slot and dropped with it, so the walk never
// accumulates devices. Everything decided before that instant — slot
// order, fault behavior, trace identity — needs only the ID.
type collectDevice struct {
	slot int
	id   string
	b    faultplan.Behavior
	t    *tds.TDS // nil for a packed slot
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

// collectResult is one wave slot: what a worker's speculative collection
// step left there, and what the commit thread resolved it to.
type collectResult struct {
	t       *tds.TDS  // the device that answered (a packed slot, materialized)
	specNow time.Time // the clock the slot was speculated against
	skip    bool      // expected to deposit nothing: no Collect was launched
	ran     bool      // tuples, stats and err are Collect's outcome at specNow
	tuples  []protocol.WireTuple
	stats   tds.CollectStats
	err     error
	sum     uint64 // the transport checksum of tuples, sealed with commit
	commit  []byte // the device's deposit MAC over tuples; nil until computed
	epoch   int    // the wire epoch commit binds
	fate    fate
}

// collectionPhase drives the collection phase of one query and settles the
// coverage account: how much of the eligible fleet the covering result
// represents, and whether that clears the fault plan's floor. The
// simulated clock advances to the instant the walk ended.
func (e *Engine) collectionPhase(ctx context.Context, rs *runState, cfgTpl tds.CollectConfig) error {
	post, metrics, faults := rs.post, rs.metrics, rs.faults
	start := rs.clock.Now()
	order := rs.rng.Perm(len(e.fleet))
	// One lifecycle read-lock for IDs and slots; revocation can change mid-walk, so resolve asks that.
	all := make([]collectDevice, len(order))
	e.life.RLock()
	for i, idx := range order {
		all[i] = collectDevice{slot: idx, id: e.deviceIDLocked(idx), t: e.fleet[idx]}
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
			if e.sampled(d.id) {
				e.obs.tracer.EngineEvent(post.ID, "fault-"+d.b.Label(), d.id, start, obs.CipherFacts{})
			}
			e.obs.devices.With("offline").Inc()
			continue
		}
		devices = append(devices, d)
	}

	if r := e.cfg.TraceSampleRate; r > 0 && r < 1 {
		rs.roll = &collectRollup{}
	}
	if rs.verify { // one record per deposit of at least one tuple
		n := int64(len(devices))
		if limit := post.Size.MaxTuples; limit > 0 {
			n = min(n, limit)
		}
		rs.integ.records = make([]depositRecord, 0, n)
	}

	w := e.newCollectWalk(rs, cfgTpl, len(devices))
	end, err := w.run(ctx, devices, start)
	if err == nil && len(rs.staleQ) > 0 {
		// Devices a torn rollout caught on the wrong epoch get one retried
		// connection each, after the walk, in their original order.
		end, err = w.retryStale(ctx, end)
	}
	if err != nil {
		return err
	}
	e.flushRollup(rs, end)
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

// acceptDeposit folds one accepted deposit into the metrics, the trace,
// the registry, and the verification records. The byte volume billed is
// the envelope's full ciphertext — what the SSI actually watched arrive,
// whether or not the SIZE cap truncated the accepted count.
func (e *Engine) acceptDeposit(rs *runState, d collectDevice, r *collectResult, accepted int,
	now time.Time, attempt int) {
	sent, sentBytes := len(r.tuples), protocol.TotalSize(r.tuples)
	rs.metrics.Nt += int64(accepted)
	if accepted == sent {
		rs.metrics.TrueTuples += int64(r.stats.True)
	}
	rs.metrics.DepositedDevices++
	rs.metrics.CollectBytes += int64(sentBytes)
	rs.recordDepositCommit(d.id, r, accepted, attempt)
	if e.sampled(d.id) {
		e.obs.tracer.SSIEvent(rs.post.ID, "deposit", d.id, now,
			obs.CipherFacts{Tuples: accepted, Bytes: int64(sentBytes), Attempt: attempt})
	}
	e.noteRollup(rs, true, accepted, int64(sentBytes), now)
	e.obs.devices.With("accepted").Inc()
	e.obs.tuples.With("accepted").Add(float64(accepted))
	if accepted == sent {
		e.obs.tuples.With("true").Add(float64(r.stats.True))
	}
	e.obs.bytes.With("collect_up").Add(float64(sentBytes))
	e.obs.depositTuples.Observe(float64(accepted))
}

// recordRejected accounts an envelope the SSI rejected. The rejection does
// not abort the collection: the querybox stays open and the walk proceeds.
// A revoked device's deposit lands here when the fault plan scripts it to
// keep depositing past its expulsion — the SSI's admit gate is the line
// of defense, and the "deposit-revoked" ledger entry proves it held.
func (e *Engine) recordRejected(rs *runState, d collectDevice, now time.Time, err error, attempt int) {
	kind, outcome := "deposit-stale", "stale"
	switch {
	case errors.Is(err, ssi.ErrCorruptDeposit):
		kind, outcome = "deposit-corrupt", "corrupt"
		rs.metrics.CorruptDeposits++
	case errors.Is(err, ssi.ErrRevokedDeposit):
		kind, outcome = "deposit-revoked", "revoked"
	}
	rs.ssi.Record(rs.post.ID, ssi.LedgerEntry{
		Kind: kind, Phase: "collection", Device: d.id, Attempt: attempt, At: now,
	})
	e.noteRollup(rs, false, 0, 0, now)
	e.obs.devices.With(outcome).Inc()
}

// recordStaleDevice accounts a device that connected while a torn rollout
// left it unable to serve this query's epoch: it has neither migrated to
// the post's epoch nor kept it as grace material. The connection slot is
// not spent (the SSI refuses before any transfer); the device queues for
// one backoff-billed retry after the walk, by which time the rollout may
// have reached it. The ledger entry makes the degradation auditable.
func (e *Engine) recordStaleDevice(rs *runState, d collectDevice, now time.Time) {
	rs.ssi.Record(rs.post.ID, ssi.LedgerEntry{
		Kind: "deposit-stale", Phase: "collection", Device: d.id, Attempt: 1, At: now,
	})
	rs.staleQ = append(rs.staleQ, d)
	e.noteRollup(rs, false, 0, 0, now)
	e.obs.devices.With("stale").Inc()
}

// recordDropped accounts a device that connected but vanished
// mid-transfer; the SSI discards the partial deposit after DepositTimeout.
func (e *Engine) recordDropped(rs *runState, d collectDevice, now time.Time) {
	wait := rs.faults.DepositWait()
	rs.metrics.DroppedDeposits++
	rs.metrics.Timeouts++
	rs.metrics.RetryWait += wait
	rs.ssi.Record(rs.post.ID, ssi.LedgerEntry{
		Kind: "deposit-timeout", Phase: "collection", Device: d.id,
		Attempt: 1, Wait: wait, At: now,
	})
	e.noteRollup(rs, false, 0, 0, now)
	e.obs.devices.With("dropped").Inc()
	e.obs.retryWait.Add(wait.Seconds())
}

// rollupWindow is how many committed connections one rollup span covers
// when trace sampling is fractional. 4096 keeps a million-device walk at
// a few hundred rollup spans.
const rollupWindow = 4096

// collectRollup accumulates one window's worth of collection outcomes, in
// commit order, so the sampled trace still accounts every device: counts,
// ciphertext volume, and exact per-deposit tuple quantiles.
type collectRollup struct {
	devices  int
	deposits int
	tuples   int
	bytes    int64
	samples  []float64 // tuples per accepted deposit
	start    time.Time
	seq      int
}

// noteRollup folds one committed connection into the open rollup window
// and flushes the window when it fills. Commit order is identical for
// every CollectWorkers setting, so rollup spans are too.
func (e *Engine) noteRollup(rs *runState, accepted bool, tuples int, bytes int64, now time.Time) {
	r := rs.roll
	if r == nil {
		return
	}
	if r.devices == 0 {
		r.start = now
	}
	r.devices++
	if accepted {
		r.deposits++
		r.tuples += tuples
		r.bytes += bytes
		r.samples = append(r.samples, float64(tuples))
	}
	if r.devices >= rollupWindow {
		e.flushRollup(rs, now)
	}
}

// flushRollup closes the open rollup window as an immediately-ended child
// span of the collect span. No-op without an open window.
func (e *Engine) flushRollup(rs *runState, now time.Time) {
	r := rs.roll
	if r == nil || r.devices == 0 {
		return
	}
	r.seq++
	sp := e.obs.tracer.StartChild(rs.post.ID, fmt.Sprintf("collect-rollup-%03d", r.seq),
		obs.PartyEngine, r.start)
	sp.SetAttr("devices", strconv.Itoa(r.devices)).
		SetAttr("deposits", strconv.Itoa(r.deposits)).
		SetAttr("tuples", strconv.Itoa(r.tuples)).
		SetAttr("bytes", strconv.FormatInt(r.bytes, 10))
	if len(r.samples) > 0 {
		sp.SetAttr("tuples_p50", strconv.FormatFloat(obs.Quantile(r.samples, 0.5), 'f', 1, 64)).
			SetAttr("tuples_p99", strconv.FormatFloat(obs.Quantile(r.samples, 0.99), 'f', 1, 64))
	}
	e.obs.tracer.EndSpan(rs.post.ID, now)
	r.devices, r.deposits, r.tuples, r.bytes = 0, 0, 0, 0
	r.samples = r.samples[:0]
}

// revokedAllowed reports whether the fault plan scripts revoked devices
// to keep depositing anyway — the adversarial case where the SSI's admit
// gate, not the engine-side connection refusal, must hold the line.
func (rs *runState) revokedAllowed() bool {
	return rs.rotScript != nil && rs.rotScript.RevokedDeposits
}

// collectWalk is the state of one query's collection walk: the workers'
// collectors and the wave slots.
type collectWalk struct {
	e      *Engine
	rs     *runState
	cfgTpl tds.CollectConfig
	// cols holds one collector per worker of the run's crew. cols[0] is the
	// commit thread's: it serves worker 0's share of a wave, every
	// commit-point redo and the stale retries, none of which overlap.
	cols []*collector
	res  []collectResult
	deps []*protocol.Deposit
}

// newCollectWalk readies a walk over n devices.
func (e *Engine) newCollectWalk(rs *runState, cfgTpl tds.CollectConfig, n int) *collectWalk {
	workers := max(min(rs.crew.n, n), 1)
	w := &collectWalk{e: e, rs: rs, cfgTpl: cfgTpl,
		cols: make([]*collector, workers),
		res:  make([]collectResult, min(workers*waveChunk, n)),
	}
	for k := range w.cols {
		w.cols[k] = newCollector()
	}
	return w
}

// width is how many devices the next wave takes: every worker's chunk,
// capped by the tuples a SIZE clause still admits. Each deposit carries at
// least one tuple, so devices beyond that budget could not all be reached
// and collecting them would be wasted.
func (w *collectWalk) width() int {
	n := len(w.res)
	if limit := w.rs.post.Size.MaxTuples; limit > 0 {
		n = int(max(min(int64(n), limit-w.rs.metrics.Nt), 1))
	}
	return n
}

// run walks the devices in connection order and returns the simulated
// instant the walk ended.
func (w *collectWalk) run(ctx context.Context, devices []collectDevice, now time.Time) (time.Time, error) {
	rs := w.rs
	// With a zero interval and no scripted rotation nothing a commit does
	// can change what the next device meets: the clock stands still (so
	// the DURATION window cannot expire between two deposits) and no
	// rotation fires at a commit point. The whole wave then settles under
	// one SSI lock acquisition; otherwise it settles a device at a time.
	batch := w.e.cfg.ConnectionInterval == 0 && rs.rotScript == nil
	for base := 0; base < len(devices); {
		if rs.ssi.CollectionDone(rs.post.ID, now) {
			break
		}
		if err := ctxErr(ctx); err != nil {
			return now, err
		}
		wave := devices[base:min(base+w.width(), len(devices))]
		base += len(wave)
		res := w.res[:len(wave)]
		for j := range res { // a slot keeps its tuple buffer: the settled wave's deposits were copied
			res[j] = collectResult{tuples: res[j].tuples[:0]}
		}
		for j := 0; j < len(wave); {
			w.speculate(wave[j:], res[j:], now)
			// Settle in connection order. A member whose speculative clock
			// is not the actual one ends the pass: the rest of the wave is
			// re-based, speculated again from here.
			for j < len(wave) && res[j].specNow.Equal(now) {
				end := len(wave)
				if !batch {
					if rs.ssi.CollectionDone(rs.post.ID, now) {
						return now, nil
					}
					end = j + 1
				}
				for k := j; k < end; k++ {
					var err error
					if res[k].fate, err = w.resolve(wave[k], &res[k], now, 1); err != nil {
						return now, err
					}
				}
				step, done, err := w.settle(wave[j:end], res[j:end], now, 1)
				if err != nil || done {
					return now, err
				}
				now, j = now.Add(step), end
			}
		}
	}
	return now, nil
}

// refused reports whether the SSI refuses the device's connection
// outright: it is revoked, and no script keeps it depositing regardless
// (a script only ever covers the first attempt).
func (w *collectWalk) refused(d collectDevice, attempt int) bool {
	return w.e.isRevoked(d.id) && (attempt > 1 || !w.rs.revokedAllowed())
}

// speculate runs the collection step of every wave member expected to
// deposit, across the workers, each member against its predicted clock.
// A member is predicted to spend its connection slot unless it is refused
// or its previous speculation in this wave failed.
func (w *collectWalk) speculate(wave []collectDevice, res []collectResult, now time.Time) {
	interval := w.e.cfg.ConnectionInterval
	spec := now
	for j, d := range wave {
		failed := res[j].ran && res[j].err != nil
		refused := !d.b.DropDeposit && w.refused(d, 1)
		// Dropped deposits occupy their slot but never produce tuples.
		res[j] = collectResult{specNow: spec, skip: d.b.DropDeposit || refused, tuples: res[j].tuples[:0]}
		if !refused && !failed {
			spec = spec.Add(d.step(interval))
		}
	}
	w.rs.crew.each(len(wave), func(k, j int) error {
		if !res[j].skip {
			w.collectSlot(w.cols[k], wave[j], &res[j])
		}
		return nil
	})
}

// seal computes what the device attaches to the tuples it uploads: the
// transport checksum and its MAC.
func (r *collectResult) seal(post *protocol.QueryPost, attempt int) {
	r.sum = protocol.Checksum(r.tuples)
	r.commit, r.epoch = r.t.CommitDeposit(post, attempt, r.tuples)
}

// collectSlot is a worker's whole job for one device: wake a packed slot,
// collect, and seal the deposit — all of it the device's own work, none of
// it the commit thread's.
func (w *collectWalk) collectSlot(c *collector, d collectDevice, r *collectResult) {
	t := d.t
	if t == nil {
		var err error
		if t, err = w.e.materializeDevice(d.slot); err != nil {
			return // resolve tries again at the commit point and reports it in walk order
		}
	}
	r.t = t
	w.collect(c, r, r.specNow)
	if r.err == nil {
		r.seal(w.rs.post, 1)
	}
}

// collect runs the slot's device at now, into the slot's own tuple buffer;
// a slot that has none yet gets one sized for the worker's previous
// answer, a fleet's devices answering much alike.
func (w *collectWalk) collect(c *collector, r *collectResult, now time.Time) {
	cfg := w.cfgTpl
	if cfg.Out = r.tuples[:0]; cfg.Out == nil {
		cfg.Out = make([]protocol.WireTuple, 0, c.last)
	}
	r.tuples, r.stats, r.err = w.e.collectOne(c, r.t, w.rs.post, cfg, now)
	r.ran, r.specNow, r.commit, c.last = true, now, nil, len(r.tuples)
}

// resolve decides what the walk does with a device at its commit point
// (the simulated instant now, the device's attempt-th connection), and
// leaves a slot that resolves to fateCommit holding exactly what a
// one-device-at-a-time walk would deposit: tuples collected at now by the
// device in its commit-point state, sealed under the epoch it is on. The
// speculative outcome is used when it is that; otherwise the step is
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
	if r.t == nil {
		r.t = d.t
	}
	if r.t == nil || (rs.rotScript != nil && e.deviceAt(d.slot) == nil) {
		// A packed slot nobody woke — or one a scripted rotation, which
		// fires at commit points, may have migrated since its wave
		// speculated: rebuild it in its commit-point state.
		t, err := e.materializeDevice(d.slot)
		if err != nil {
			return 0, err
		}
		r.t = t
	}
	if (attempt > 1 || (rs.rotScript != nil && e.rotationInProgress())) && !r.t.ServesEpoch(post.Epoch) {
		if attempt > 1 {
			return fateError, nil // still stale on its retry
		}
		return fateStale, nil
	}
	if !r.ran || !r.specNow.Equal(now) || (rs.rotScript != nil && r.err != nil) {
		// Never speculated, speculated against another clock, or failed
		// in what may have been the device's pre-migration state.
		w.collect(w.cols[0], r, now)
	}
	if r.err != nil {
		return fateError, nil
	}
	epoch := r.t.Epoch()
	if epoch == 0 {
		epoch = post.Epoch
	}
	if r.commit == nil || r.epoch != epoch {
		r.seal(post, attempt)
	}
	return fateCommit, nil
}

// settle books a run of resolved slots whose devices all connect at now:
// the envelopes of those that deposit go through the SSI in one call, and
// every outcome is booked in connection order — through the device whose
// deposit hit the SIZE cap and no further, exactly the devices a
// one-at-a-time walk reaches. Each envelope that reaches the SSI is one
// tick of the scripted-rotation trigger clock, which therefore strikes
// the same logical instant at any worker count. It returns the simulated
// time the run's connection slots spent and whether the collection
// completed.
func (w *collectWalk) settle(run []collectDevice, res []collectResult, now time.Time,
	attempt int) (time.Duration, bool, error) {
	e, rs := w.e, w.rs
	rs.slab.Grow(len(run))
	deps := w.deps[:0]
	for j, d := range run {
		if r := &res[j]; r.fate == fateCommit {
			// The envelope declares the epoch the device's MAC binds —
			// during a rotation grace window that may be the previous
			// epoch, which the SSI's grace policy admits.
			dep := rs.slab.New(rs.post.ID, d.id, attempt, r.epoch, r.tuples, r.sum)
			dep.Commit = r.commit
			if d.b.CorruptDeposit {
				dep.Sum ^= 0x1 // one flipped transport bit; the checksum catches it
			}
			deps = append(deps, dep)
		}
	}
	w.deps = deps
	out, doneAt, done, err := rs.ssi.DepositEnvelopeBatch(rs.post.ID, deps, now)
	if err != nil {
		return 0, false, err
	}
	interval := e.cfg.ConnectionInterval
	var spent time.Duration
	b := 0 // the next envelope to book
	for j, d := range run {
		if done && b > doneAt {
			break // doneAt is -1 when the collection was complete before the run
		}
		switch r := &res[j]; r.fate {
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
		spent += d.step(interval) // the device did connect
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
		queue[i].t = nil // the rollout may have reached the slot since it queued
		r := &w.res[0]
		*r = collectResult{tuples: r.tuples[:0]}
		var err error
		if r.fate, err = w.resolve(queue[i], r, now.Add(wait), 2); err != nil {
			return now, err
		}
		var billed time.Duration
		if r.ran {
			// The retry went ahead; one that cannot proceed bills no backoff.
			billed = wait
			rs.metrics.RetryWait += wait
			w.e.obs.retryWait.Add(wait.Seconds())
			now = now.Add(wait)
		}
		// The device is booked by how this connection ends, not by the
		// provisional deposit-stale mark it queued with: the ledger says so.
		rs.ssi.Record(rs.post.ID, ssi.LedgerEntry{
			Kind: "deposit-retry", Phase: "collection", Device: queue[i].id,
			Attempt: 2, Wait: billed, At: now,
		})
		step, done, err := w.settle(queue[i:i+1], w.res[:1], now, 2)
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
