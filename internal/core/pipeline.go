package core

import (
	"fmt"
	"sync"
	"time"

	"github.com/trustedcells/tcq/internal/costmodel"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/ssi"
	"github.com/trustedcells/tcq/internal/tds"
)

// Streaming pipeline: overlap collection with aggregation.
//
// The generic protocol (Fig. 2) runs collection → aggregation → filtering
// strictly phase-by-phase, but the first aggregation step only ever needs
// a partition's worth of committed tuples. With the pipeline armed, the
// engine speculatively processes each full deposit-order window of the
// SSI's chunked store (ssi.Streamer) as soon as collection commits it,
// concurrently with late collection. When collection settles and the
// canonical, verified partition build is known, every speculative output
// whose input window exactly matches a canonical partition is adopted
// and the canonical TDS computation for that partition is skipped.
//
// The determinism contract survives because the speculation is invisible
// to every observable: the canonical build, the worker draws, the
// recovery ledger, the metered simulated time, the spans and the journal
// are computed exactly as in barrier mode. Adoption only replaces a TDS
// computation with an earlier, content-identical one — which is sound
// because in the speculated regime (no audit replicas, no compromised
// devices, no rotation in flight) every device of the query's epoch
// produces observably identical outputs for the same partition: output
// plaintext, tags, sizes and keyed semantic digests are pure functions
// of (post, partition); only ciphertext nonces differ, and those are
// excluded from every determinism-compared observable. Any mismatch —
// a tampered build, a torn window, a speculation error — simply falls
// back to the canonical computation. Correctness never depends on
// speculation.

// PipelineMode selects whether a query's collection phase overlaps the
// first aggregation step. It is the typed replacement for what would
// otherwise have been another ad-hoc bool on Request.
type PipelineMode int

const (
	// PipelineDefault defers to the engine-wide Config.Pipeline (whose
	// own zero value resolves to PipelineOff).
	PipelineDefault PipelineMode = iota
	// PipelineOff runs the phases strictly barrier-synchronized, as the
	// paper's Fig. 2 presents them.
	PipelineOff
	// PipelineAuto consults the Section 6.1 cost model at the fleet's
	// nominal operating point and overlaps only when the model predicts
	// a meaningful win (both the collection phase and the streamed
	// aggregation family long enough to overlap).
	PipelineAuto
	// PipelineFull always overlaps.
	PipelineFull
)

// String renders the mode for traces and CLI flags.
func (m PipelineMode) String() string {
	switch m {
	case PipelineDefault:
		return "default"
	case PipelineOff:
		return "off"
	case PipelineAuto:
		return "auto"
	case PipelineFull:
		return "full"
	}
	return fmt.Sprintf("PipelineMode(%d)", int(m))
}

// ParsePipelineMode maps a CLI flag value onto a PipelineMode. The empty
// string and "default" select PipelineDefault.
func ParsePipelineMode(s string) (PipelineMode, error) {
	switch s {
	case "", "default":
		return PipelineDefault, nil
	case "off":
		return PipelineOff, nil
	case "auto":
		return PipelineAuto, nil
	case "full":
		return PipelineFull, nil
	}
	return PipelineDefault, fmt.Errorf("core: unknown pipeline mode %q (want off, auto or full)", s)
}

// PipelineReport describes what the streaming pipeline did for one run.
// It reports the mechanism, not the answer: Speculated/Adopted/Wasted
// count speculative windows, whose usefulness depends on wall-clock
// interleaving and lifecycle events — so the report is exempt from the
// bit-identical determinism contract that covers rows, Metrics, ledger,
// journal and trace. (In an honest, rotation-free run the counts are in
// practice reproducible: settling waits for every speculative window and
// adoption is decided by content, not timing.)
type PipelineReport struct {
	// Mode is the resolved request mode (never PipelineDefault).
	Mode PipelineMode
	// Active reports whether speculation was actually armed: the mode
	// asked for it and the run was in the speculated regime (no audit
	// replicas, no compromised fleet share, no rotation in flight).
	Active bool
	// Speculated counts the windows processed ahead of the barrier;
	// Adopted those whose outputs the canonical phase reused; Wasted the
	// rest (trailing partial windows, tampered builds, lifecycle moves).
	Speculated, Adopted, Wasted int
}

// pipelineAutoMinOverlap is the cost-model threshold for PipelineAuto:
// overlap only when both the predicted collection phase and the predicted
// streamed aggregation family are at least this long — below it the
// speculation bookkeeping outweighs any win.
const pipelineAutoMinOverlap = time.Millisecond

// streamTuplesPerPartition sizes the streamed first step. Unlike
// perPartitionTuples it must be computable before any deposit arrives
// (the speculator sizes windows during collection), so it uses the
// calibration's nominal tuple size rather than the measured average.
// The canonical build uses the same value in both pipeline modes.
func (e *Engine) streamTuplesPerPartition(params protocol.Params) int {
	if params.PartitionTuples > 0 {
		return params.PartitionTuples
	}
	avg := e.cal.TupleSize
	if avg < 1 {
		avg = 64
	}
	n := e.cal.PartitionSize / avg
	if n < 2 {
		n = 2
	}
	return n
}

// firstStepPer is the partition size of the protocol's streamed first
// step: the calibrated streaming unit, additionally capped at ~α·G for
// S_Agg (Section 4.2's first-step partitions).
func (e *Engine) firstStepPer(kind protocol.Kind, params protocol.Params, g int) int {
	per := e.streamTuplesPerPartition(params)
	if kind == protocol.KindSAgg {
		alpha := params.Alpha
		if alpha < 2 {
			alpha = 3.6
		}
		if ap := int(alpha * float64(g)); ap < per {
			per = ap
		}
		if per < 2 {
			per = 2
		}
	}
	return per
}

// resolvePipelineMode applies the Request → Config → off default chain.
func (e *Engine) resolvePipelineMode(req Request) PipelineMode {
	mode := req.Pipeline
	if mode == PipelineDefault {
		mode = e.cfg.Pipeline
	}
	if mode == PipelineDefault {
		mode = PipelineOff
	}
	return mode
}

// pipelineWorthIt is PipelineAuto's decision: predict the run at the
// fleet's nominal operating point and overlap when the model says both
// sides of the overlap are long enough to matter. Configurations the
// model has no closed form for arm anyway — speculation never costs
// correctness, only spare cycles.
func (e *Engine) pipelineWorthIt(kind protocol.Kind, params protocol.Params) bool {
	name := modelName(kind, params)
	if name == "" {
		return true
	}
	st := e.cal.TupleSize
	if st < 1 {
		st = 64
	}
	tt := e.cal.TransferTime(st) + e.cal.CryptoTime(st) + e.cal.CPUTime(st)
	p := costmodel.Params{
		Nt: float64(len(e.fleet)), G: 16, St: float64(st), Tt: tt,
		Available: float64(e.availableWorkers()),
		Alpha:     params.Alpha, H: params.CollisionFactor,
	}
	fc, err := costmodel.Full(name, p, e.cfg.AuditReplicas)
	if err != nil {
		return true
	}
	var collect, streamed time.Duration
	for _, ph := range fc.Phases {
		switch {
		case ph.Name == "collection":
			collect = ph.TQ
		case streamed == 0: // first post-collection family is the streamed one
			streamed = ph.TQ
		}
	}
	overlap := collect
	if streamed < overlap {
		overlap = streamed
	}
	return overlap >= pipelineAutoMinOverlap
}

// armPipeline resolves the request's pipeline mode and, when the run is
// in the speculated regime, starts the speculative executor. It must run
// before the collection phase (the executor feeds on deposit commits).
//
// The regime gates are exactly the conditions under which "which device
// computes a partition" is observable: audit replicas vote over several
// devices, a compromised fleet share makes outputs device-dependent, and
// a rotation can split the fleet's key material mid-run. Scripted SSI
// misbehavior is deliberately NOT gated — any verified canonical build
// equals the honest stash content, so content-matched adoption stays
// sound and the misbehavior sweep covers pipelined runs.
func (e *Engine) armPipeline(rs *runState, req Request, g int) {
	rs.pipeMode = e.resolvePipelineMode(req)
	if rs.pipeMode == PipelineOff || req.CollectOnly {
		return
	}
	if e.cfg.AuditReplicas > 1 || e.cfg.CompromisedFraction > 0 {
		return
	}
	if rs.rotScript != nil || e.rotationInProgress() {
		return
	}
	if rs.pipeMode == PipelineAuto && !e.pipelineWorthIt(req.Kind, rs.post.Params) {
		return
	}
	dev := e.specDevice(rs.post.Epoch)
	if dev == nil {
		return
	}
	post := rs.post
	p := &pipeline{
		e:   e,
		svc: rs.ssi,
		id:  post.ID,
		per: e.firstStepPer(req.Kind, post.Params, g),
		sem: make(chan struct{}, e.collectWorkers()),
	}
	switch req.Kind {
	case protocol.KindBasic:
		p.run = func(in []protocol.WireTuple) ([]protocol.WireTuple, error) {
			return dev.FilterSFW(post, in)
		}
	case protocol.KindSAgg:
		p.run = func(in []protocol.WireTuple) ([]protocol.WireTuple, error) {
			return dev.Aggregate(post, in, tds.EmitWhole)
		}
	case protocol.KindRnfNoise, protocol.KindCNoise, protocol.KindEDHist:
		p.byTag = true
		p.tagBuf = make(map[string][]protocol.WireTuple)
		p.run = func(in []protocol.WireTuple) ([]protocol.WireTuple, error) {
			return dev.Aggregate(post, in, tds.EmitPerGroup)
		}
	default:
		return
	}
	rs.pipe = p
}

// specDevice picks the device that runs speculative windows: the first
// live slot able to open the query's epoch. Deliberately not a run-RNG
// draw — speculation must not shift the deterministic draw stream — and
// deliberately not runDevice, whose per-run cache is single-goroutine.
// TDS instances are safe for concurrent use (concurrent queries already
// share the fleet), so the collection walk may visit the same device.
func (e *Engine) specDevice(epoch int) *tds.TDS {
	for slot := range e.fleet {
		if e.isRevoked(e.deviceID(slot)) || !e.slotServes(slot, epoch) {
			continue
		}
		if t := e.deviceAt(slot); t != nil {
			return t
		}
		if t, err := e.materializeDevice(slot); err == nil {
			return t
		}
	}
	return nil
}

// pipeline is the speculative executor of one run's streamed first step.
// notify feeds it from the deposit-commit funnel; settle joins it against
// the canonical verified build; abort discards it on any failure path.
type pipeline struct {
	e     *Engine
	svc   ssi.Service
	id    string
	per   int
	byTag bool
	run   func([]protocol.WireTuple) ([]protocol.WireTuple, error)
	sem   chan struct{} // bounds concurrent speculative windows

	mu      sync.Mutex
	stopped bool                            // no further dispatch (settle and abort both set it)
	aborted bool                            // in-flight windows bail without computing (abort only)
	nextWin int                             // full deposit-order windows dispatched
	tagBuf  map[string][]protocol.WireTuple // per-tag arrival-order accumulation
	results []*specResult
	wg      sync.WaitGroup

	settled         bool // settle/abort ran (run-goroutine only)
	adopted, wasted int
}

// specResult is one speculative window: the input it processed and what
// came out. in/out/err/done are written by the worker goroutine and read
// only after wg.Wait establishes the happens-before edge.
type specResult struct {
	in   []protocol.WireTuple
	out  []protocol.WireTuple
	err  error
	done bool
	used bool
}

// notify is called from the deposit-commit funnel after every accepted
// deposit: count is the committed tuple total, accepted the tuples this
// deposit added. Commits are serialized in connection order, so windows
// and tag chunks form identically at every CollectWorkers setting.
func (p *pipeline) notify(count int, accepted []protocol.WireTuple) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return
	}
	if p.byTag {
		// The canonical tagged build (TagPartitions) chunks each tag's
		// arrival-order sequence at exact per boundaries, so flushing a
		// tag's buffer every per tuples reproduces those chunks exactly.
		// Untagged dummies — sprinkled round-robin by the canonical
		// build — are skipped here; the partitions they land in simply
		// fail the content match and are recomputed canonically.
		for _, w := range accepted {
			if len(w.Tag) == 0 {
				continue
			}
			key := string(w.Tag)
			buf := append(p.tagBuf[key], w)
			if len(buf) == p.per {
				p.dispatchLocked(buf[:p.per:p.per], 0)
				buf = buf[p.per:]
			}
			p.tagBuf[key] = buf
		}
		return
	}
	for count/p.per > p.nextWin {
		p.dispatchLocked(nil, p.nextWin)
		p.nextWin++
	}
}

// dispatchLocked starts one speculative window (p.mu held). A nil input
// means deposit-order window win, fetched from the Streamer inside the
// worker so the commit path never pays the copy.
func (p *pipeline) dispatchLocked(in []protocol.WireTuple, win int) {
	r := &specResult{in: in}
	p.results = append(p.results, r)
	p.e.obs.pipeline.With("speculated").Inc()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.sem <- struct{}{}
		defer func() { <-p.sem }()
		p.mu.Lock()
		aborted := p.aborted
		p.mu.Unlock()
		if aborted {
			return
		}
		if r.in == nil {
			r.in = p.svc.TakePartition(p.id, win, p.per)
		}
		r.out, r.err = p.run(r.in)
		r.done = true
	}()
}

// settle joins the speculation against the canonical verified build: it
// stops dispatch, waits out every speculated window (already-dispatched
// windows are allowed to finish — on a saturated box most only get CPU
// here), re-checks that no
// lifecycle event moved the fleet since arming, and returns the adoption
// map — canonical partition index → speculative output — for every
// partition whose content exactly matches a speculative input. Each
// speculative result is adopted at most once.
func (p *pipeline) settle(post *protocol.QueryPost, parts [][]protocol.WireTuple) map[int][]protocol.WireTuple {
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
	p.wg.Wait()
	p.settled = true
	if len(p.results) == 0 {
		return nil
	}
	// A rotation (or revocation, which always rotates) moved the fleet
	// under the speculation: every window was computed against the
	// pre-move key-material view, so none may be adopted.
	if p.e.wireEpoch() != post.Epoch || p.e.rotationInProgress() {
		p.wasted = len(p.results)
		p.e.obs.pipeline.With("wasted").Add(float64(p.wasted))
		return nil
	}
	byKey := make(map[uint64][]*specResult, len(p.results))
	for _, r := range p.results {
		if !r.done || r.err != nil {
			continue
		}
		k := specKey(r.in)
		byKey[k] = append(byKey[k], r)
	}
	adopt := make(map[int][]protocol.WireTuple)
	for i, part := range parts {
		if len(part) != p.per {
			continue // partial windows are never speculated
		}
		for _, r := range byKey[specKey(part)] {
			if r.used || !tuplesEqual(r.in, part) {
				continue
			}
			r.used = true
			adopt[i] = r.out
			break
		}
	}
	p.adopted = len(adopt)
	p.wasted = len(p.results) - p.adopted
	p.e.obs.pipeline.With("adopted").Add(float64(p.adopted))
	p.e.obs.pipeline.With("wasted").Add(float64(p.wasted))
	if len(adopt) == 0 {
		return nil
	}
	return adopt
}

// abort discards the speculation on any path that never settled it:
// failed runs, runs whose streamed step was skipped, deferred cleanup.
// Safe on a nil pipeline and after settle (it then does nothing).
func (p *pipeline) abort() {
	if p == nil || p.settled {
		return
	}
	p.mu.Lock()
	p.stopped = true
	p.aborted = true
	p.mu.Unlock()
	p.wg.Wait()
	p.settled = true
	if n := len(p.results); n > 0 {
		p.wasted = n
		p.e.obs.pipeline.With("wasted").Add(float64(n))
	}
}

// settlePipeline hands the canonical verified first-step build to the
// speculative executor and installs the adoption map for the next
// runPhase. A no-op in barrier mode.
func (e *Engine) settlePipeline(rs *runState, parts [][]protocol.WireTuple) {
	if rs.pipe == nil {
		return
	}
	rs.adopt = rs.pipe.settle(rs.post, parts)
}

// pipelineReport renders the run's pipeline outcome.
func (rs *runState) pipelineReport() *PipelineReport {
	r := &PipelineReport{Mode: rs.pipeMode}
	if rs.pipe != nil {
		r.Active = true
		r.Speculated = len(rs.pipe.results)
		r.Adopted = rs.pipe.adopted
		r.Wasted = rs.pipe.wasted
	}
	return r
}

// specKey hashes a tuple sequence, order-sensitively, for adoption
// candidate lookup; matches are confirmed with tuplesEqual.
func specKey(ws []protocol.WireTuple) uint64 {
	h := uint64(len(ws))
	for i := range ws {
		h = h*hashPrime ^ tupleHash(&ws[i])
	}
	return h
}

// tuplesEqual reports exact, order-sensitive equality of two tuple
// sequences — the adoption criterion.
func tuplesEqual(a, b []protocol.WireTuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameTuple(&a[i], &b[i]) {
			return false
		}
	}
	return true
}
