// Package faultplan scripts deterministic fault injection for a TDS fleet.
//
// The paper's architecture is built on intermittently connected devices: a
// TDS connects, deposits, and vanishes, and the SSI must drive the
// protocol to completion anyway (Section 2.1, 3.2). This package is the
// physical world's misbehavior, made reproducible: a seeded Plan assigns
// every (device, query) pair a Behavior — offline windows, mid-deposit
// disconnects, corrupted uploads, latency inflation, crash-before-commit
// during aggregation — plus the SSI-side recovery policy (timeouts, capped
// exponential backoff, a per-partition retry cap, a coverage floor).
//
// Determinism is the design constraint everything here serves: a Behavior
// depends only on (Plan.Seed, device ID, query ID), never on connection
// order, goroutine scheduling or wall time. The engine's parallel
// collection pipeline can therefore evaluate behaviors speculatively and
// still commit bit-identical runs for any worker count.
package faultplan

import (
	"slices"
	"time"

	"github.com/trustedcells/tcq/internal/rng"
)

// Defaults of the SSI-side recovery policy (simulated time).
const (
	// DefaultSlowFactor inflates a slow device's connection latency.
	DefaultSlowFactor = 4.0
	// DefaultDepositTimeout is how long the SSI holds a half-finished
	// deposit before discarding it (the device vanished mid-transfer).
	DefaultDepositTimeout = 30 * time.Second
	// DefaultPhaseTimeout is how long the SSI waits for an assigned
	// partition before declaring the worker dead and re-issuing it.
	DefaultPhaseTimeout = 2 * time.Second
	// DefaultBackoffBase is the first re-issue backoff.
	DefaultBackoffBase = 250 * time.Millisecond
	// DefaultBackoffCap bounds the exponential backoff.
	DefaultBackoffCap = 4 * time.Second
)

// Plan scripts the churn of one fleet. The zero value injects nothing; a
// nil *Plan is valid everywhere and behaves like the zero value.
type Plan struct {
	// Seed drives every per-device draw. Two plans with equal seeds and
	// fractions script identical fleets.
	Seed int64

	// OfflineFraction is the share of devices that never connect during a
	// query's collection phase (an offline window covering the query).
	OfflineFraction float64
	// DropFraction is the share of devices that connect and start
	// depositing but disconnect mid-transfer; the SSI discards the partial
	// deposit after DepositTimeout.
	DropFraction float64
	// CorruptFraction is the share of devices whose deposit arrives with a
	// transport integrity failure; the SSI detects the bad checksum and
	// rejects the envelope.
	CorruptFraction float64
	// SlowFraction is the share of devices whose connection latency is
	// inflated by SlowFactor (simulated clock only).
	SlowFraction float64
	// SlowFactor multiplies a slow device's connection interval; values
	// below 1 select DefaultSlowFactor.
	SlowFactor float64
	// CrashFraction is the share of devices that crash before committing
	// whenever they are handed an aggregation/filtering partition; the SSI
	// times out and re-issues the partition to a replacement TDS.
	CrashFraction float64

	// DepositTimeout, PhaseTimeout, BackoffBase and BackoffCap tune the
	// SSI-side recovery policy; zero selects the defaults above.
	DepositTimeout time.Duration
	PhaseTimeout   time.Duration
	BackoffBase    time.Duration
	BackoffCap     time.Duration

	// CoverageFloor is the minimum ratio of eligible devices whose deposit
	// must commit for the run to count as answered; below it the engine
	// fails the query with core.ErrCoverageBelowFloor. 0 disables the
	// floor.
	CoverageFloor float64

	// SSI scripts infrastructure-side misbehavior: the supporting servers
	// themselves dropping, duplicating or replaying ciphertext instead of
	// the devices churning. Nil keeps the SSI honest-but-curious.
	SSI *SSIScript

	// Rotation scripts a live key rotation (and optional revocation)
	// firing mid-collection. Nil rotates nothing. The script adds no RNG
	// draws, so plans with and without it assign every device the same
	// Behavior.
	Rotation *RotationScript
}

// SSIMisbehavior names one scripted infrastructure attack. Unlike device
// Behaviors — accidents of the physical world — these are deliberate
// protocol violations by the weakly malicious SSI of the upgraded threat
// model; the engine's integrity layer must detect every one of them.
type SSIMisbehavior string

// The scripted SSI attacks.
const (
	// SSIDropTuple removes one tuple from a partition build: a covering
	// result silently shrunk.
	SSIDropTuple SSIMisbehavior = "drop-tuple"
	// SSIDuplicateTuple stores one tuple twice in a partition build,
	// double-counting its contribution to the aggregate.
	SSIDuplicateTuple SSIMisbehavior = "duplicate-tuple"
	// SSIReplayStalePartition substitutes a partition from an earlier
	// phase of the same query for a current one.
	SSIReplayStalePartition SSIMisbehavior = "replay-stale-partition"
	// SSIForgeCoverage discards a device's deposited tuples while still
	// reporting the deposit as accepted, inflating the claimed coverage.
	SSIForgeCoverage SSIMisbehavior = "forge-coverage"
	// SSIEquivocatePartitioning hands the same tuple to two different
	// partitions, so two TDSs each fold it once.
	SSIEquivocatePartitioning SSIMisbehavior = "equivocate-partitioning"
)

// SSIMisbehaviors returns every scripted attack, in a fixed order.
func SSIMisbehaviors() []SSIMisbehavior {
	return []SSIMisbehavior{
		SSIDropTuple, SSIDuplicateTuple, SSIReplayStalePartition,
		SSIForgeCoverage, SSIEquivocatePartitioning,
	}
}

// SSIScript scripts the adversarial SSI for a run. Strike points are
// drawn deterministically from (Plan.Seed, query ID), so an adversarial
// run is as reproducible as an honest one at any worker count.
type SSIScript struct {
	// Behaviors lists the attacks the adversary mounts. Each fires at its
	// deterministically drawn opportunity, once per query by default.
	Behaviors []SSIMisbehavior
	// Persistent re-arms every behavior after it fires, so the attack also
	// hits the engine's quarantine-and-retry path — the degradation case
	// that must end in a typed detection error instead of a result.
	Persistent bool
}

// Scripts reports whether b is among the scripted behaviors.
func (s *SSIScript) Scripts(b SSIMisbehavior) bool {
	return s != nil && slices.Contains(s.Behaviors, b)
}

// RotationScript schedules the engine's one key-change mechanism, the
// broadcast rotation, at a deterministic point inside one query's
// collection phase: it is how keys rotate mid-query, as
// Engine.RevokeAndRotate is how they rotate between queries. The trigger counts committed
// connections — never wall time or goroutine scheduling — so the rotation
// fires at the same logical instant for every CollectWorkers setting and
// the run stays bit-identical across worker counts. The zero value of
// each knob disables it.
type RotationScript struct {
	// AfterDeposits begins the rotation once this many deposit envelopes
	// have been committed through the SSI for the query. 0 never begins
	// a rotation from the script (one already in progress when the query
	// starts is still driven by WaveEvery below).
	AfterDeposits int
	// Waves is the staged-rollout wave count of the rotation it begins;
	// values below 1 select a single wave (the whole fleet at once). The
	// grace window closes itself once every wave has landed and no query
	// posted at the old epoch is left.
	Waves int
	// WaveEvery advances one rollout wave every further N committed
	// envelopes. 0 applies every wave at the rotation point.
	WaveEvery int
	// Revoke lists device IDs expelled at the rotation point. Revocation
	// is immediate — no grace: the SSI rejects their deposits from that
	// instant on.
	Revoke []string
	// DropBundle scripts the SSI losing the trust bundle: no device in
	// any wave migrates, the whole fleet stays on the old epoch, and
	// only the grace window (which admits it) keeps collection going.
	// An SSI replaying an older, validly signed bundle has the same
	// effect: every device rejects it on the version counter.
	DropBundle bool
	// TornRollout leaves the rollout unfinished: the wave schedule stops
	// advancing before the last wave, so the query ends with the fleet
	// split across two epochs and the grace window still open, until
	// Engine.RevokeAndRotate closes it and re-keys the stranded devices.
	TornRollout bool
	// RevokedDeposits keeps revoked devices depositing: the engine skips
	// its own eligibility filter so the SSI's revocation gate is what
	// must reject them.
	RevokedDeposits bool
}

// Behavior is what the plan scripts for one device on one query.
type Behavior struct {
	// Offline: the device never connects during collection.
	Offline bool
	// DropDeposit: the device connects but vanishes mid-deposit.
	DropDeposit bool
	// CorruptDeposit: the deposit arrives with a bad transport checksum.
	CorruptDeposit bool
	// SlowFactor inflates this device's connection interval (>= 1).
	SlowFactor float64
	// CrashInPhase: the device crashes before committing any
	// aggregation/filtering partition it is assigned.
	CrashInPhase bool
}

// For returns the scripted behavior of device deviceID on query queryID.
// It is pure: the outcome depends only on (Seed, deviceID, queryID), so
// callers may evaluate it in any order, from any goroutine, any number of
// times. A nil plan scripts nothing.
func (p *Plan) For(deviceID, queryID string) Behavior {
	b := Behavior{SlowFactor: 1}
	if p == nil {
		return b
	}
	var src rng.Source
	src.Aim(p.Seed, queryID, rng.Fault|uint64(rng.Hash(deviceID)))
	// Fixed draw count and order: adding a scenario must not reshuffle the
	// draws of the others.
	offline := src.Float64() < p.OfflineFraction
	drop := src.Float64() < p.DropFraction
	corrupt := src.Float64() < p.CorruptFraction
	slow := src.Float64() < p.SlowFraction
	crash := src.Float64() < p.CrashFraction
	// Collection outcomes are mutually exclusive, resolved by severity: a
	// device that never connects cannot also half-deposit, and a deposit
	// that never completes cannot arrive corrupted.
	switch {
	case offline:
		b.Offline = true
	case drop:
		b.DropDeposit = true
	case corrupt:
		b.CorruptDeposit = true
	}
	if slow && !b.Offline {
		f := p.SlowFactor
		if f < 1 {
			f = DefaultSlowFactor
		}
		b.SlowFactor = f
	}
	// Crashing is a phase-time property, independent of the collection
	// outcome (phases draw from the whole fleet, not just collectors).
	b.CrashInPhase = crash
	return b
}

// Label names the collection-phase outcome a behavior scripts, for
// trace events and fault reports: "offline", "drop", "corrupt", "slow"
// or "clean". Severity order matches For's resolution.
func (b Behavior) Label() string {
	switch {
	case b.Offline:
		return "offline"
	case b.DropDeposit:
		return "drop"
	case b.CorruptDeposit:
		return "corrupt"
	case b.SlowFactor > 1:
		return "slow"
	}
	return "clean"
}

// DepositWait is the simulated time the SSI spends before discarding a
// half-finished deposit.
func (p *Plan) DepositWait() time.Duration {
	if p == nil || p.DepositTimeout <= 0 {
		return DefaultDepositTimeout
	}
	return p.DepositTimeout
}

// Backoff returns the capped exponential backoff before re-issue attempt
// n (1-based): base, 2·base, 4·base, ... never above the cap.
func (p *Plan) Backoff(attempt int) time.Duration {
	base, cap := DefaultBackoffBase, DefaultBackoffCap
	if p != nil && p.BackoffBase > 0 {
		base = p.BackoffBase
	}
	if p != nil && p.BackoffCap > 0 {
		cap = p.BackoffCap
	}
	if attempt < 1 {
		attempt = 1
	}
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= cap {
			return cap
		}
	}
	if d > cap {
		return cap
	}
	return d
}

// RetryWait is the total simulated delay one failed assignment costs the
// SSI: the detection timeout plus the backoff before re-issue attempt n.
func (p *Plan) RetryWait(attempt int) time.Duration {
	t := DefaultPhaseTimeout
	if p != nil && p.PhaseTimeout > 0 {
		t = p.PhaseTimeout
	}
	return t + p.Backoff(attempt)
}
