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
	"fmt"
	"sync"
	"time"

	"github.com/trustedcells/tcq/internal/accessctl"
	"github.com/trustedcells/tcq/internal/netsim"
	"github.com/trustedcells/tcq/internal/obs"
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
	// AvailableFraction is the share of the fleet connected during the
	// aggregation and filtering phases (the paper sweeps 1%, 10%, 100%).
	// 0 selects the paper's default of 10%; NewEngine refuses values
	// outside [0, 1].
	AvailableFraction float64
	// ConnectionInterval is the simulated time between two successive TDS
	// connections in the collection phase. With seldom-connected devices
	// (health tokens) it is hours; smart meters make it ~0. It is what a
	// SIZE ... DURATION window measures against.
	ConnectionInterval time.Duration
	// CollectWorkers is the host parallelism of a run: how many goroutines
	// share out its collection waves, the verifier's leaf MACs and its
	// phases' partitions — real CPU parallelism of the simulator, invisible
	// to the protocol (AvailableFraction is the simulated one). Deposits
	// still commit in the pre-drawn connection order and phase outputs land
	// in plan order, so metrics, SSI observations and results are identical
	// for every setting. 0 selects GOMAXPROCS; 1 runs the whole query on the
	// calling goroutine.
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
	// against. Nil selects the honest-but-curious SSI at its default
	// stripe count (ssi.NewSharded(0)), whose per-query state stripes over
	// independent lock domains so concurrent queries never serialize on
	// one mutex. Tests and the benchmark inject instrumented decorators;
	// the engine only ever talks through the ssi.Service interface, and
	// writes every run's trace and journal itself, so an injected SSI
	// carries nothing outside that interface.
	SSI ssi.Service
	// Seed makes runs reproducible.
	Seed int64
}

// Engine owns a fleet, an SSI and the cryptographic material.
type Engine struct {
	cfg       Config
	schema    *storage.Schema
	fleet     fleet // the enrolled devices, as packed slots (fleet.go)
	ssi       ssi.Service
	authority *accessctl.Authority
	keyAuth   *tdscrypto.KeyAuthority
	keys      tdscrypto.KeyRing
	cal       netsim.Calibration // the unit-test board of Section 6.2
	planCache *tds.PlanCache     // what a query's devices share; no device holds a plan of its own
	tracer    *obs.Tracer        // each run's span tree, taken into its Response
	journal   *obs.Journal       // each run's structured journal, likewise

	// What runs borrow: window slots, phase workers' devices (so no
	// collection device holds a fold scratch) and collectors.
	walkers    idle[collectResult]
	folders    idle[*tds.TDS]
	collectors idle[*collector]

	mu        sync.Mutex
	seq       int
	discovery map[string]*discovered // cached A_G distributions

	// life guards the fleet's enrollment state against live rotation and
	// revocation: the key authority's epoch, keys/verifier, the fleet's
	// slots (epochs, regions, texts), the revocation set, and the rotation
	// coordinator state. Queries hold it only for pointer-sized
	// reads on hot paths; lifecycle operations take it exclusively.
	life sync.RWMutex
	// rot is the in-progress live rotation (rotation.go); nil otherwise.
	rot *rotationState
	// posted counts the runs in flight by the wire epoch they posted at:
	// a rotation's grace window closes once none at the old epoch is left.
	posted map[int]int
	// bundleSeq is the trust-bundle distribution counter: the Version of
	// the last bundle published, which devices enforce monotonicity
	// against.
	bundleSeq uint64
	// mats is the expanded key material of every key-authority epoch,
	// expanded once when the epoch begins: every device woken at an epoch
	// borrows it, and the run verifying a query's commitments uses its
	// committer.
	mats []*tds.KeyMaterial

	// Broadcast revocation state (built by the first rotation, rebuilt
	// by the first one after the fleet outgrows the tree).
	bcast   *tdscrypto.BroadcastAuthority
	revoked map[string]bool
}

// NewEngine builds an engine with an empty fleet.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Schema == nil {
		return nil, fmt.Errorf("core: Config.Schema is required")
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("core: Config.Policy is required")
	}
	if cfg.AvailableFraction < 0 || cfg.AvailableFraction > 1 {
		return nil, fmt.Errorf("core: Config.AvailableFraction %v outside [0, 1]", cfg.AvailableFraction)
	}
	if cfg.AvailableFraction == 0 {
		cfg.AvailableFraction = 0.10
	}
	auth := accessctl.NewAuthority(cfg.AuthorityKey)
	keyAuth := tdscrypto.NewKeyAuthority(cfg.MasterKey)
	svc := cfg.SSI
	if svc == nil {
		svc = ssi.NewSharded(0)
	}
	ring := keyAuth.Ring()
	km, err := tds.NewKeyMaterial(ring)
	if err != nil {
		return nil, err
	}
	return &Engine{
		cfg:       cfg,
		schema:    cfg.Schema,
		ssi:       svc,
		authority: auth,
		keyAuth:   keyAuth,
		keys:      ring,
		cal:       netsim.DefaultCalibration(),
		planCache: tds.NewPlanCache(),
		tracer:    obs.NewTracer(),
		journal:   obs.NewJournal(),
		mats:      []*tds.KeyMaterial{km},
		discovery: make(map[string]*discovered),
		posted:    make(map[int]int),
	}, nil
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

// FleetSize returns the number of enrolled TDSs.
func (e *Engine) FleetSize() int { return e.fleet.size() }

// nextQueryID allocates a unique query identifier.
func (e *Engine) nextQueryID() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.seq++
	return fmt.Sprintf("q-%06d", e.seq)
}

// availableWorkers is the number of TDSs connected during aggregation and
// filtering phases: simulated P_TDS, never a goroutine count.
func (e *Engine) availableWorkers() int {
	n := int(e.cfg.AvailableFraction * float64(e.fleet.size()))
	if n < 1 {
		n = 1
	}
	return n
}
