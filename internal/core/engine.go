// Package core is the paper's contribution assembled: an engine that runs
// privacy-preserving SQL queries over a fleet of Trusted Data Servers
// through an untrusted Supporting Server Infrastructure, using any of the
// protocols of Sections 3-4 (Basic, S_Agg, Rnf_Noise, C_Noise, ED_Hist).
//
// The engine plays the role of the physical world: it connects TDSs to the
// SSI, schedules which connected TDS processes which partition, injects
// failures, and accounts simulated time through the netsim calibration —
// mirroring the paper's methodology of functional validation plus a
// calibrated cost model.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/trustedcells/tcq/internal/accessctl"
	"github.com/trustedcells/tcq/internal/netsim"
	"github.com/trustedcells/tcq/internal/obs"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/ssi"
	"github.com/trustedcells/tcq/internal/storage"
	"github.com/trustedcells/tcq/internal/tds"
	"github.com/trustedcells/tcq/internal/tdscrypto"
)

// Config configures an Engine.
type Config struct {
	// Schema is the common schema every TDS database conforms to.
	Schema *storage.Schema
	// Policy is installed in every TDS.
	Policy *accessctl.Policy
	// AuthorityKey signs querier credentials.
	AuthorityKey tdscrypto.Key
	// MasterKey seeds the k1/k2 key ring of the fleet.
	MasterKey tdscrypto.Key
	// Calibration models TDS hardware; zero value selects the unit-test
	// board of Section 6.2.
	Calibration netsim.Calibration
	// AvailableFraction is the share of the fleet connected during the
	// aggregation and filtering phases (the paper sweeps 1%, 10%, 100%).
	// 0 selects the paper's default of 10%.
	AvailableFraction float64
	// FailureRate is the probability that a TDS goes offline while
	// processing a partition; the SSI then re-assigns the partition
	// (correctness property of Section 3.2). 0 disables failures.
	FailureRate float64
	// ConnectionInterval is the simulated time between two successive TDS
	// connections in the collection phase. With seldom-connected devices
	// (health tokens) it is hours; smart meters make it ~0. It is what a
	// SIZE ... DURATION window measures against.
	ConnectionInterval time.Duration
	// CollectWorkers bounds how many TDSs run their collection step
	// concurrently — real CPU parallelism of the simulator, invisible to
	// the protocol: deposits still commit in the pre-drawn connection
	// order, so metrics, SSI observations and results are bit-identical
	// for every setting. 0 selects GOMAXPROCS; 1 runs the same walk on
	// the calling goroutine alone.
	CollectWorkers int
	// AuditReplicas enables the compromised-TDS extension: every
	// aggregation/filtering partition is processed by this many distinct
	// TDSs and their keyed semantic digests compared; the majority result
	// wins and disagreements are counted (Metrics.AuditDetections).
	// 0 or 1 disables auditing. Use an odd value ≥ 3 to outvote a single
	// compromised device per partition.
	AuditReplicas int
	// CompromisedFraction marks this share of the fleet as compromised at
	// enrollment (simulation of the extended threat model). Compromised
	// devices silently drop half of the work in partitions they process.
	CompromisedFraction float64
	// SSI injects the supporting-server implementation the engine runs
	// against. Nil selects a sharded honest-but-curious SSI
	// (ssi.NewSharded), whose per-query state stripes over independent
	// lock domains so concurrent queries never serialize on one mutex.
	// Tests inject a plain ssi.New() or instrumented implementations; the
	// engine only ever talks through the ssi.Service interface.
	SSI ssi.Service
	// TraceSampleRate bounds per-device trace volume at fleet scale: each
	// device's collection events (deposit, offline fault, collect error)
	// are traced only when a stable hash of its ID falls under the rate.
	// Sampled-out activity is still folded into per-wave rollup spans
	// carrying counts and exact quantiles, and the recovery-ledger mirror
	// is never sampled, so the trace stays deterministic and auditable at
	// any rate. 0 (and anything >= 1) traces every device — the golden
	// traces pin that default.
	TraceSampleRate float64
	// PackedFleet provisions the fleet in the packed representation:
	// ProvisionFleet serializes each device's database into one shared
	// blob and materializes a live TDS only while the device is
	// connected, with key rings derived on demand per epoch. Memory per
	// enrolled device drops from a full LocalDB plus key schedules to a
	// few dozen bytes, which is what makes million-device fleets
	// routinely benchmarkable. Every observable — rows, metrics,
	// ledgers, traces — is bit-identical to the eager representation.
	PackedFleet bool
	// Seed makes runs reproducible.
	Seed int64
}

// Engine owns a fleet, an SSI and the cryptographic material.
type Engine struct {
	cfg       Config
	schema    *storage.Schema
	fleet     []*tds.TDS
	ssi       ssi.Service
	authority *accessctl.Authority
	keyAuth   *tdscrypto.KeyAuthority
	keys      tdscrypto.KeyRing
	cal       netsim.Calibration
	planCache *tds.PlanCache // fleet-shared compiled plans, per query
	obs       *engineObs     // tracer + metrics registry
	// verifier recomputes k2 deposit and partition commitments on the
	// trusted side of the run — the engine playing the querier's checker
	// against whatever the SSI claims. Refreshed on key rotation.
	verifier *tdscrypto.Committer

	// packed backs the nil entries of fleet when Config.PackedFleet is
	// set; kmCache shares one expanded key ring per epoch across every
	// device materialized from it. devCache (always non-nil, disabled
	// until a Server enables it) shares materialized devices across
	// in-flight queries.
	packed   *packedFleet
	kmMu     sync.Mutex
	kmCache  map[uint32]*tds.KeyMaterial
	devCache *deviceCache

	mu        sync.Mutex
	seq       int
	discovery map[string]*discovered // cached A_G distributions

	// life guards the fleet's enrollment state against live rotation and
	// revocation: the key authority's epoch, keys/verifier, eager fleet
	// slot replacement, packed slot epochs, the revocation set, and the
	// rotation coordinator state. Queries hold it only for pointer-sized
	// reads on hot paths; lifecycle operations take it exclusively.
	life sync.RWMutex
	// rot is the in-progress live rotation (rotation.go); nil otherwise.
	rot *rotationState
	// bundleSeq is the trust-bundle distribution counter: the Version of
	// the last bundle published, which devices enforce monotonicity
	// against.
	bundleSeq uint64
	// commCache shares one k2 committer per wire epoch for verifying
	// deposits across a rotation boundary (guarded by kmMu, like
	// kmCache).
	commCache map[int]*tdscrypto.Committer

	// Broadcast revocation state (lazily initialized by the first
	// rotation).
	bcast      *tdscrypto.BroadcastAuthority
	deviceKeys map[string]tdscrypto.DeviceKeySet
	revoked    map[string]bool
}

// discovered is a cached distribution-discovery outcome. The entry lands
// in Engine.discovery before its sub-query runs; ready closes once counts
// and domain (or err) are settled, so concurrent queries needing the same
// distribution wait for one discovery run instead of racing N of them.
type discovered struct {
	counts map[string]int64
	domain []storage.Row
	err    error
	ready  chan struct{}
}

// NewEngine builds an engine with an empty fleet.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Schema == nil {
		return nil, fmt.Errorf("core: Config.Schema is required")
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("core: Config.Policy is required")
	}
	if cfg.Calibration == (netsim.Calibration{}) {
		cfg.Calibration = netsim.DefaultCalibration()
	}
	if cfg.AvailableFraction <= 0 || cfg.AvailableFraction > 1 {
		cfg.AvailableFraction = 0.10
	}
	auth := accessctl.NewAuthority(cfg.AuthorityKey)
	keyAuth := tdscrypto.NewKeyAuthority(cfg.MasterKey)
	eo := newEngineObs()
	svc := cfg.SSI
	if svc == nil {
		svc = ssi.NewSharded(0)
	}
	// The SSI mirrors ledger events into the trace and the structured
	// journal when it knows how.
	if tw, ok := svc.(interface{ WithTracer(*obs.Tracer) }); ok {
		tw.WithTracer(eo.tracer)
	}
	if jw, ok := svc.(interface{ WithJournal(*obs.Journal) }); ok {
		jw.WithJournal(eo.journal)
	}
	ring := keyAuth.Ring()
	return &Engine{
		cfg:       cfg,
		schema:    cfg.Schema,
		ssi:       svc,
		authority: auth,
		keyAuth:   keyAuth,
		keys:      ring,
		cal:       cfg.Calibration,
		planCache: tds.NewPlanCache(),
		obs:       eo,
		verifier:  tdscrypto.NewCommitter(ring.K2),
		discovery: make(map[string]*discovered),
		devCache:  &deviceCache{},
	}, nil
}

// newTDS builds an eager device enrolled at the authority's current
// epoch, wired to the engine's shared plan cache. Like a packed slot it
// borrows the epoch's key material: one ring per epoch, expanded once.
func (e *Engine) newTDS(id string, db *storage.LocalDB) (*tds.TDS, error) {
	epoch := uint32(e.keyAuth.Epoch())
	km, err := e.keyMaterial(epoch)
	if err != nil {
		return nil, err
	}
	t := tds.NewWithMaterial(id, db, km, e.cfg.Policy, e.authority)
	t.SetEpoch(int(epoch) + 1)
	t.Shared = e.planCache
	return t, nil
}

// dropPlans forgets every compiled plan of a finished query, fleet-wide.
func (e *Engine) dropPlans(id string) {
	e.planCache.Drop(id)
	e.life.RLock()
	for _, t := range e.fleet {
		if t != nil { // packed slots hold plans only while materialized
			t.DropPlan(id)
		}
	}
	e.life.RUnlock()
	// Devices kept live across queries by the server's shared cache hold
	// their own local plan maps too.
	e.devCache.each(func(t *tds.TDS) { t.DropPlan(id) })
}

// RotateKeys advances the fleet key epoch (the paper notes k1/k2 may
// change over time). Queriers built with the new K1 and TDSs enrolled
// after rotation use the new ring; devices still holding the previous
// epoch's keys can no longer decrypt new queries and drop out of
// collection (counted in Metrics.CollectErrors) until re-enrolled. This
// is the hard cutover; BeginRotation (rotation.go) is the live path that
// migrates a fleet under traffic.
func (e *Engine) RotateKeys() {
	e.life.Lock()
	defer e.life.Unlock()
	e.rotateKeysLocked()
}

// rotateKeysLocked advances the epoch under an already-held lifecycle
// lock.
func (e *Engine) rotateKeysLocked() {
	e.keyAuth.Rotate()
	e.keys = e.keyAuth.Ring()
	e.verifier = tdscrypto.NewCommitter(e.keys.K2)
}

// ReenrollAll re-provisions every enrolled TDS with the current key ring,
// as a fleet-wide firmware/key update would. Compromised devices remain
// compromised — re-enrollment changes keys, not silicon.
func (e *Engine) ReenrollAll() error {
	e.life.Lock()
	defer e.life.Unlock()
	for i, old := range e.fleet {
		if old == nil {
			// A packed slot re-enrolls by recording the new epoch; the
			// ring is derived from it when the device next wakes.
			e.packed.epoch[i] = uint32(e.keyAuth.Epoch())
			continue
		}
		t, err := e.newTDS(old.ID, old.DB)
		if err != nil {
			return err
		}
		t.Corrupt = old.Corrupt
		e.fleet[i] = t
	}
	// Cached devices embody the pre-rotation key material; force a fresh
	// materialization at the new epoch.
	e.devCache.purge()
	return nil
}

// RevokeAndRotate expels the given devices from the fleet as one hard
// cutover: a single-wave rotation (rotation.go) begun and completed under
// one hold of the lifecycle lock. It revokes their broadcast slots,
// rotates the key ring, and distributes the new ring with the
// complete-subtree broadcast scheme (footnote 7). Every non-revoked device
// opens the broadcast and migrates; the revoked ones cannot decrypt it,
// stay on the dead epoch, and drop out of every future query
// (Metrics.CollectErrors). Feed it the repeat offenders from
// Metrics.Suspects to close the audit loop: detect, revoke, rotate.
func (e *Engine) RevokeAndRotate(ids ...string) error {
	if len(ids) == 0 {
		return fmt.Errorf("core: RevokeAndRotate needs at least one device ID")
	}
	e.life.Lock()
	defer e.life.Unlock()
	if e.rot != nil {
		return fmt.Errorf("core: a live rotation is in progress; complete it before the hard cutover")
	}
	if err := e.beginRotationLocked(1, ids); err != nil {
		return err
	}
	return e.completeRotationLocked()
}

// ensureBroadcastLocked lazily stands up the broadcast tree. On real
// hardware the path keys are installed at enrollment; the simulation
// issues them retroactively (and on demand) from the fleet roster.
func (e *Engine) ensureBroadcastLocked() error {
	if e.bcast != nil {
		return nil
	}
	bc, err := tdscrypto.NewBroadcastAuthority(e.cfg.MasterKey, len(e.fleet))
	if err != nil {
		return err
	}
	e.bcast = bc
	e.deviceKeys = make(map[string]tdscrypto.DeviceKeySet)
	if e.revoked == nil {
		e.revoked = make(map[string]bool)
	}
	return nil
}

// deviceKeysLocked derives (and caches) one slot's broadcast path keys.
// Lazy derivation keeps million-device fleets from paying a full-tree
// key issue up front.
func (e *Engine) deviceKeysLocked(slot int) (tdscrypto.DeviceKeySet, error) {
	id := e.deviceIDLocked(slot)
	if dk, ok := e.deviceKeys[id]; ok {
		return dk, nil
	}
	dk, err := e.bcast.DeviceKeys(slot)
	if err != nil {
		return tdscrypto.DeviceKeySet{}, err
	}
	e.deviceKeys[id] = dk
	return dk, nil
}

// revokeSlotsLocked expels the named devices: broadcast-tree revocation
// plus the engine's revocation set. Every ID is resolved before any slot
// is revoked, so an unknown device refuses the whole list.
func (e *Engine) revokeSlotsLocked(ids []string) error {
	slotOf := make(map[string]int, len(e.fleet))
	for i := range e.fleet {
		slotOf[e.deviceIDLocked(i)] = i
	}
	slots := make([]int, len(ids))
	for i, id := range ids {
		slot, ok := slotOf[id]
		if !ok {
			return fmt.Errorf("core: unknown device %q", id)
		}
		slots[i] = slot
	}
	for i, slot := range slots {
		if err := e.bcast.Revoke(slot); err != nil {
			return err
		}
		e.revoked[ids[i]] = true
	}
	return nil
}

// revokedListLocked returns the revocation set in sorted order — the
// deterministic form trust bundles and SSI policies carry.
func (e *Engine) revokedListLocked() []string {
	if len(e.revoked) == 0 {
		return nil
	}
	out := make([]string, 0, len(e.revoked))
	for id := range e.revoked {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// pushEpochPolicyLocked installs the current epoch/grace/revocation admit
// policy on the SSI. ssi.Epochs is part of the composed ssi.Service
// surface, so every injected implementation carries it.
func (e *Engine) pushEpochPolicyLocked(grace bool) {
	e.ssi.SetEpochPolicy(ssi.EpochPolicy{
		Epoch:   int(e.keyAuth.Epoch()) + 1,
		Grace:   grace,
		Revoked: e.revokedListLocked(),
	})
}

// RevokedDevices returns the IDs expelled so far, sorted.
func (e *Engine) RevokedDevices() []string {
	e.life.RLock()
	defer e.life.RUnlock()
	return e.revokedListLocked()
}

// Authority returns the credential authority so callers can issue querier
// credentials accepted by the fleet.
func (e *Engine) Authority() *accessctl.Authority { return e.authority }

// K1 returns the querier-side key of the current ring.
func (e *Engine) K1() tdscrypto.Key {
	e.life.RLock()
	defer e.life.RUnlock()
	return e.keys.K1
}

// Schema returns the common schema.
func (e *Engine) Schema() *storage.Schema { return e.schema }

// SSI exposes the supporting-server interface for observation in tests
// and audits. The concrete implementation — plain, sharded, injected — is
// deliberately hidden: everything the engine relies on is in ssi.Service.
func (e *Engine) SSI() ssi.Service { return e.ssi }

// FleetSize returns the number of enrolled TDSs.
func (e *Engine) FleetSize() int { return len(e.fleet) }

// AddTDS enrolls one TDS hosting the given local database. When the
// extended threat model is active, a deterministic share of devices is
// marked compromised at enrollment.
func (e *Engine) AddTDS(db *storage.LocalDB) (*tds.TDS, error) {
	e.life.Lock()
	defer e.life.Unlock()
	id := fmt.Sprintf("tds-%05d", len(e.fleet))
	t, err := e.newTDS(id, db)
	if err != nil {
		return nil, err
	}
	if f := e.cfg.CompromisedFraction; f > 0 {
		r := rand.New(rand.NewSource(e.cfg.Seed ^ int64(hashString(id)) ^ 0x5eed))
		t.Corrupt = r.Float64() < f
	}
	e.fleet = append(e.fleet, t)
	return t, nil
}

// ProvisionFleet enrolls n TDSs whose databases are produced by populate.
// Each database is consumed during its own enrollment and not referenced
// afterwards: with Config.PackedFleet it is serialized and discarded, and
// either way the engine retains nothing of populate's scratch state.
func (e *Engine) ProvisionFleet(n int, populate func(i int) *storage.LocalDB) error {
	if e.cfg.PackedFleet {
		return e.provisionPacked(n, populate)
	}
	for i := 0; i < n; i++ {
		if _, err := e.AddTDS(populate(i)); err != nil {
			return err
		}
	}
	return nil
}

// nextQueryID allocates a unique query identifier.
func (e *Engine) nextQueryID() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.seq++
	return fmt.Sprintf("q-%06d", e.seq)
}

// wireEpoch is the 1-based key epoch stamped on query posts and deposit
// envelopes. KeyAuthority epochs are 0-based; on the wire 0 means
// "unknown", so the first epoch transmits as 1.
func (e *Engine) wireEpoch() int {
	e.life.RLock()
	defer e.life.RUnlock()
	return int(e.keyAuth.Epoch()) + 1
}

// availableWorkers is the number of TDSs connected during aggregation and
// filtering phases.
func (e *Engine) availableWorkers() int {
	n := int(e.cfg.AvailableFraction * float64(len(e.fleet)))
	if n < 1 {
		n = 1
	}
	return n
}

// Metrics reports what one protocol run cost, in the units of the paper's
// evaluation (Section 6.1). It is the per-run compatibility snapshot of
// the observability layer: the same quantities accumulate across runs in
// the registry behind Engine.Registry, and the per-event detail lives in
// Response.Trace.
type Metrics struct {
	Protocol protocol.Kind
	// Nt is the number of wire tuples deposited during the collection
	// phase (true + fake + dummy), the cost model's N_t.
	Nt int64
	// TrueTuples counts only true collection tuples.
	TrueTuples int64
	// Groups is G, the number of distinct groups in the final result
	// before HAVING.
	Groups int
	// PTDS counts TDS participations in the aggregation and filtering
	// phases (the parallelism metric P_TDS).
	PTDS int
	// LoadBytes is Load_Q: total bytes moved through TDSs and stored at
	// the SSI across all phases.
	LoadBytes int64
	// CollectBytes is the ciphertext volume of the accepted deposits —
	// what the SSI watched arrive during collection. It calibrates the
	// cost model's s_t (CollectBytes / Nt) for the conformance report.
	CollectBytes int64
	// TQ is the simulated duration of the aggregation + filtering phases
	// (collection is application-dependent and excluded, as in the
	// paper).
	TQ time.Duration
	// TLocal is the average simulated busy time per TDS participation.
	TLocal time.Duration
	// Reassignments counts partitions re-sent after a TDS failure.
	Reassignments int
	// CollectErrors counts TDSs that connected but could not answer
	// (stale key epoch, local fault); the protocol proceeds without them.
	CollectErrors int
	// AuditDetections counts replicas outvoted by the digest comparison
	// when AuditReplicas > 1 — each is a partition on which some device
	// produced a result its peers disagreed with.
	AuditDetections int
	// Suspects lists the device IDs that produced outvoted results, with
	// repetition — feed them to Engine.RevokeAndRotate to expel repeat
	// offenders from the fleet.
	Suspects []string
	// EligibleDevices is how many TDSs the collection phase could have
	// reached: the whole fleet, or the target set of a personal-querybox
	// run.
	EligibleDevices int
	// DepositedDevices is how many of them committed a deposit the SSI
	// accepted before the SIZE condition closed the collection.
	DepositedDevices int
	// CoverageRatio is DepositedDevices / EligibleDevices — the exact share
	// of the reachable fleet represented in the covering result. Churn
	// (offline windows, dropped or corrupt deposits) and early SIZE cutoffs
	// both lower it; a fault plan's CoverageFloor turns a low ratio into
	// ErrCoverageBelowFloor.
	CoverageRatio float64
	// OfflineDevices counts eligible TDSs whose fault plan scripted an
	// offline window covering this query: they never connected.
	OfflineDevices int
	// DroppedDeposits counts deposits abandoned mid-transfer; the SSI
	// discarded each after the plan's DepositTimeout.
	DroppedDeposits int
	// CorruptDeposits counts envelopes the SSI rejected on their transport
	// checksum.
	CorruptDeposits int
	// Timeouts counts every SSI-side timeout the run absorbed: dropped
	// deposits plus phase assignments that had to be re-issued.
	Timeouts int
	// RetryWait is the total simulated time the SSI spent waiting out
	// timeouts and backoffs. The share incurred in aggregation/filtering
	// phases is also folded into TQ; collection-phase deposit timeouts are
	// not (collection time is excluded from TQ, as in the paper).
	RetryWait time.Duration
	// PartitionsAbandoned counts partitions dropped after the fault plan's
	// MaxAttempts re-issues — graceful degradation instead of livelock.
	PartitionsAbandoned int
	// IntegrityChecks counts verification steps of the verified execution
	// path: one per acknowledged deposit, per covering-count and
	// coverage-account reconciliation, and per partition build (retries
	// included). Zero when the request set SkipVerify.
	IntegrityChecks int
	// IntegrityViolations counts checks the SSI failed — each one a
	// detected protocol violation, never a silent skew.
	IntegrityViolations int
	// IntegrityQuarantines counts partition builds quarantined after a
	// failed multiset check.
	IntegrityQuarantines int
	// IntegrityRecovered counts quarantined builds whose verified retry
	// passed — graceful degradation that still delivered the honest
	// result.
	IntegrityRecovered int
	// Observation is the honest-but-curious SSI ledger for the run.
	Observation ssi.Observation
	// Ledger is the SSI's recovery audit trail: every deposit timeout,
	// rejected envelope and partition re-issue, in committed order —
	// deterministic for a fixed fault seed at any worker count.
	Ledger []ssi.LedgerEntry
	// Phases records the simulated duration of every aggregation /
	// filtering step in order (S_Agg contributes one entry per iterative
	// step). Collection is excluded, as in the paper's T_Q.
	Phases []PhaseTiming
}

// PhaseTiming is one phase's simulated makespan and work volume.
type PhaseTiming struct {
	Name     string
	Duration time.Duration
	Units    int // partitions processed (replicas included)
	Bytes    int64
}

// applyPhaseStats folds a phase's incident counters into the metrics.
func (m *Metrics) applyPhaseStats(ps phaseStats) {
	m.Reassignments += ps.Reassigned
	m.AuditDetections += ps.Detections
	m.Suspects = append(m.Suspects, ps.Suspects...)
	m.Timeouts += ps.Timeouts
	m.RetryWait += ps.Wait
	m.PartitionsAbandoned += ps.Abandoned
}

// addNamedPhase folds one phase's work-unit durations into the metrics and
// records its timing entry. wait is the phase's timeout + backoff bill; it
// extends both the phase duration and TQ (the SSI cannot hand out the next
// phase's partitions while it is still waiting out this one's stragglers).
func (m *Metrics) addNamedPhase(name string, units []time.Duration, workers int, bytes int64, wait time.Duration) {
	dur := netsim.Makespan(units, workers) + wait
	m.PTDS += len(units)
	m.TQ += dur
	for _, u := range units {
		m.TLocal += u // converted to a mean in finish()
	}
	m.Phases = append(m.Phases, PhaseTiming{
		Name: name, Duration: dur, Units: len(units), Bytes: bytes,
	})
}

func (m *Metrics) finish() {
	if m.PTDS > 0 {
		m.TLocal /= time.Duration(m.PTDS)
	}
}

// workUnit is one partition processed by one TDS in some phase.
type workUnit struct {
	partition []protocol.WireTuple
	out       []protocol.WireTuple
	busy      time.Duration
}

// phaseStats aggregates what a phase cost beyond its work units.
type phaseStats struct {
	Reassigned int           // partitions re-sent after a TDS death
	Detections int           // replicas outvoted by the audit (compromised-TDS ext.)
	Suspects   []string      // IDs of the outvoted devices
	Timeouts   int           // scripted crashes the SSI had to time out
	Wait       time.Duration // timeout + backoff bill of those crashes
	Abandoned  int           // partitions dropped after MaxAttempts
}

// runPhase distributes partitions over connected TDSs with a bounded
// worker pool, injecting failures and re-assigning failed partitions.
// process runs inside the chosen TDS; it must be pure protocol work.
//
// With Config.AuditReplicas > 1, every partition is processed by that many
// distinct TDSs; the SSI compares their keyed semantic digests and keeps
// the majority output, outvoting compromised devices (extended threat
// model). Each replica is a real work unit: auditing multiplies P_TDS and
// Load_Q by ~r, the price of the stronger threat model.
//
// Two failure sources coexist: the legacy Config.FailureRate draws
// deaths from the run RNG, and a fault plan scripts crash-before-commit
// per (device, query). A scripted crash bills the SSI a PhaseTimeout
// plus capped exponential backoff (phaseStats.Wait), lands a "reassign"
// entry in the recovery ledger, and re-issues the partition to freshly
// drawn replacements — until the plan's MaxAttempts abandons it. Workers
// are drawn before the failure draw so even a legacy death names its
// device in the ledger, and every entry carries the simulated instant
// the SSI gave up on the assignment. All draws happen sequentially up
// front, so the phase is deterministic for any pool size.
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
	// only when actually drawn.
	live := make([]int, 0, len(e.fleet))
	for slot := range e.fleet {
		if !e.isRevoked(e.deviceID(slot)) && e.slotServes(slot, post.Epoch) {
			live = append(live, slot)
		}
	}
	if len(live) == 0 {
		// A fully stale fleet (hard cutover, nobody re-enrolled) still
		// runs the protocol and fails per-device, exactly like collection
		// did; the epoch filter only narrows the pool while a mix of
		// epochs is live, as during a staged rotation.
		for slot := range e.fleet {
			if !e.isRevoked(e.deviceID(slot)) {
				live = append(live, slot)
			}
		}
	}
	if len(live) == 0 {
		return nil, stats, fmt.Errorf("%w: every device is revoked", ErrNoEligibleTDS)
	}
	replicas := e.cfg.AuditReplicas
	if replicas < 1 {
		replicas = 1
	}
	if replicas > len(live) {
		replicas = len(live)
	}

	type task struct {
		part    []protocol.WireTuple
		attempt int // 1-based assignment count for this partition
	}
	tasks := make([]task, 0, len(partitions))
	for _, p := range partitions {
		tasks = append(tasks, task{part: p, attempt: 1})
	}

	// Failure decisions must be deterministic: draw them up front.
	failDraw := func() bool { return rng.Float64() < e.cfg.FailureRate }

	// Pre-pick worker TDSs and failure flags deterministically, then let
	// goroutines do the crypto-heavy processing concurrently.
	type assignment struct {
		part    []protocol.WireTuple
		workers []*tds.TDS // replicas processing the same partition
	}
	var plan []assignment
	maxReassign := 10 * len(partitions) // safety valve against failure rates ~ 1
	for qi := 0; qi < len(tasks); qi++ {
		t := tasks[qi]
		if err := ctxErr(ctx); err != nil {
			return nil, stats, err
		}
		// Pre-draw enough distinct workers for up to three audit rounds:
		// when a round produces no strict digest majority, the partition
		// is re-sent to the next batch of fresh devices. Drawing before
		// the failure decision means every death below has a name.
		rounds := 1
		if replicas > 1 {
			rounds = 3
		}
		want := replicas * rounds
		if want > len(live) {
			want = len(live)
		}
		ws := make([]*tds.TDS, 0, want)
		seen := make(map[int]bool, want)
		for len(ws) < want {
			i := rng.Intn(len(live))
			if seen[i] {
				continue
			}
			seen[i] = true
			w, err := e.runDevice(rs, live[i])
			if err != nil {
				return nil, stats, err
			}
			ws = append(ws, w)
		}
		if e.cfg.FailureRate > 0 && stats.Reassigned < maxReassign && failDraw() {
			// The TDS dies mid-partition: after a timeout the SSI re-sends
			// the partition to another available TDS (Section 3.2,
			// correctness). The dead TDS's partial work is discarded. The
			// legacy model bills no wait, but the ledger still names the
			// assignee and the instant.
			stats.Reassigned++
			rs.ssi.Record(post.ID, ssi.LedgerEntry{
				Kind: "reassign", Phase: phase, Device: ws[0].ID,
				Attempt: t.attempt, At: phaseStart.Add(stats.Wait),
			})
			tasks = append(tasks, task{part: t.part, attempt: t.attempt + 1})
			continue
		}
		if faults != nil && stats.Reassigned < maxReassign &&
			faults.For(ws[0].ID, post.ID).CrashInPhase {
			// The scripted churn: the primary assignee crashes before
			// committing. The SSI times out, backs off, and re-issues the
			// partition to a fresh draw — or abandons it past MaxAttempts.
			wait := faults.RetryWait(t.attempt)
			stats.Timeouts++
			at := phaseStart.Add(stats.Wait) // instant the SSI starts waiting this one out
			stats.Wait += wait
			rs.ssi.Record(post.ID, ssi.LedgerEntry{
				Kind: "reassign", Phase: phase, Device: ws[0].ID,
				Attempt: t.attempt, Wait: wait, At: at,
			})
			if max := faults.MaxAttempts; max > 0 && t.attempt >= max {
				stats.Abandoned++
				rs.ssi.Record(post.ID, ssi.LedgerEntry{
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

	pool := e.availableWorkers()
	if pool > len(partitions)*replicas {
		pool = len(partitions) * replicas
	}
	if pool < 1 {
		pool = 1
	}

	// Each assignment gets its own result slot, and the slots are flattened
	// in plan order after the pool drains: the phase output is independent
	// of goroutine completion order, so downstream partitioning (and hence
	// the whole run) is deterministic for any pool size.
	type phaseResult struct {
		units    []workUnit
		suspects []string
	}
	var (
		mu       sync.Mutex
		results  = make([]phaseResult, len(plan))
		firstErr error
		wg       sync.WaitGroup
	)
	sem := make(chan struct{}, pool)
	for ai, a := range plan {
		wg.Add(1)
		sem <- struct{}{}
		go func(ai int, a assignment) {
			defer wg.Done()
			defer func() { <-sem }()
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
				end := start + replicas
				if end > len(a.workers) {
					end = len(a.workers)
				}
				batch := a.workers[start:end]
				unanimous := true
				var firstKey string
				for i, w := range batch {
					out, err := process(w, a.part)
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
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
		}(ai, a)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, stats, firstErr
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
	inBytes, outBytes := tupleBytes(in), tupleBytes(out)
	m.AddDownload(e.cal, inBytes)
	m.AddDecrypt(e.cal, inBytes)
	m.AddCompute(e.cal, inBytes)
	m.AddEncrypt(e.cal, outBytes)
	m.AddUpload(e.cal, outBytes)
	return m.Total()
}

func tupleBytes(ws []protocol.WireTuple) int { return protocol.TotalSize(ws) }

// collectOutputs flattens phase outputs in deterministic partition order.
func collectOutputs(units []workUnit) []protocol.WireTuple {
	var out []protocol.WireTuple
	for _, u := range units {
		out = append(out, u.out...)
	}
	return out
}
