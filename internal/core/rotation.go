package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"github.com/trustedcells/tcq/internal/faultplan"
	"github.com/trustedcells/tcq/internal/rng"
	"github.com/trustedcells/tcq/internal/ssi"
	"github.com/trustedcells/tcq/internal/tdscrypto"
)

// Keys change one way: a broadcast rotation (the paper's "these keys may
// change over time", Section 3.1, distributed as footnote 7's broadcast
// encryption). It runs as a coordinated sequence the fleet absorbs
// mid-query:
//
//  1. BeginRotation rotates the authority, publishes one signed
//     tdscrypto.TrustBundle (new epoch + revocation set + the new ring
//     broadcast-encrypted to exactly the surviving devices), opens the
//     SSI's grace window (deposits of epoch e and e-1 both admit; revoked
//     devices are rejected immediately — no grace for revocation), and
//     derives the staged rollout schedule.
//  2. AdvanceRotationWave delivers the bundle to the next wave. Each
//     migrating device verifies the envelope signature, enforces version
//     monotonicity (replay defense), opens the broadcast with its own
//     tree keys, and installs the new ring as primary while keeping the
//     old epoch's material as grace — so queries posted before its
//     migration keep opening on it mid-flight.
//  3. CompleteRotation applies any remaining waves, closes the grace
//     window on the SSI and the devices, and retires the rotation.
//
// Between queries RevokeAndRotate is the same sequence as one call;
// mid-query a fault plan's RotationScript drives it. The wave schedule
// is a pure function of (engine seed, target epoch, device ID) — never
// of slot order, worker count, goroutine scheduling or time — so a
// rotation scripted at a deterministic trigger point yields
// bit-identical runs for every CollectWorkers setting, which is what the
// composed-fault generator's cross-axis clause pins.

// rotationState is the coordinator state of one in-progress rotation,
// guarded by Engine.life.
type rotationState struct {
	newEpoch uint32 // key-authority epoch the bundle carries
	version  uint64 // trust-bundle distribution counter of this rotation
	bundle   []byte // the signed bundle, as published to the SSI
	waves    [][]int
	nextWave int // waves[:nextWave] have been applied
}

// rotationWave assigns one device to a rollout wave: rng.Hash over the
// engine seed (8 bytes, little-endian), the target epoch (4 bytes,
// little-endian) and the device ID, mod the wave count. The schedule
// depends only on these inputs, so it is bit-identical across runs,
// engines and worker counts.
func rotationWave(seed int64, epoch uint32, id string, waves int) int {
	b := binary.LittleEndian.AppendUint64(make([]byte, 0, 12+len(id)), uint64(seed))
	b = binary.LittleEndian.AppendUint32(b, epoch)
	return int(rng.Hash(append(b, id...)) % uint32(waves))
}

// BeginRotation starts a live key rotation: revoke the named devices (if
// any), rotate the authority, publish the signed trust bundle, open the
// grace window on the SSI, and derive the staged rollout schedule. No
// device migrates yet — waves apply via AdvanceRotationWave (or all at
// once via CompleteRotation). In-flight queries posted at the old epoch
// keep running throughout: unmigrated devices serve them on their
// primary material, migrated ones on their grace material, and the SSI
// admits both epochs until CompleteRotation.
func (e *Engine) BeginRotation(waves int, revoke ...string) error {
	e.life.Lock()
	defer e.life.Unlock()
	if e.rot != nil {
		return fmt.Errorf("core: a rotation is already in progress")
	}
	return e.beginRotationLocked(waves, revoke)
}

// beginRotationLocked is BeginRotation under an already-held lifecycle
// lock, with no rotation in progress.
func (e *Engine) beginRotationLocked(waves int, revoke []string) error {
	if waves < 1 {
		waves = 1
	}
	if err := e.ensureBroadcastLocked(); err != nil {
		return err
	}
	// Revocations ride the rotation: revoke the broadcast slots first so
	// the new ring's broadcast excludes them.
	if len(revoke) > 0 {
		if err := e.revokeSlotsLocked(revoke); err != nil {
			return err
		}
	}
	e.rotateKeysLocked()
	newEpoch := uint32(e.keyAuth.Epoch())
	msg, err := e.bcast.BroadcastRing(e.keys)
	if err != nil {
		return err
	}
	e.bundleSeq++
	bundle := tdscrypto.SignTrustBundle(&tdscrypto.TrustBundle{
		Version:   e.bundleSeq,
		Epoch:     uint64(newEpoch),
		Revoked:   e.revokedListLocked(),
		Broadcast: msg,
	}, tdscrypto.BundleSigner(e.cfg.MasterKey))

	schedule := make([][]int, waves)
	for slot := range e.fleet {
		id := e.deviceIDLocked(slot)
		if e.revoked[id] {
			continue // never scheduled; a revoked device cannot open the bundle
		}
		w := rotationWave(e.cfg.Seed, newEpoch, id, waves)
		schedule[w] = append(schedule[w], slot)
	}
	e.rot = &rotationState{newEpoch: newEpoch, version: e.bundleSeq, bundle: bundle, waves: schedule}
	e.pushEpochPolicyLocked(true) // grace: epoch e and e-1 both admit
	return nil
}

// AdvanceRotationWave delivers the trust bundle to the next rollout wave
// and migrates its devices. It reports whether every wave has now been
// applied (the rollout is complete; the grace window stays open until
// CompleteRotation).
func (e *Engine) AdvanceRotationWave() (bool, error) {
	return e.advanceRotationWave(true)
}

// advanceRotationWave applies the next wave. With delivered false the
// SSI lost the bundle: nobody in the wave migrates, and the grace window
// keeps the old epoch serviceable.
func (e *Engine) advanceRotationWave(delivered bool) (bool, error) {
	e.life.Lock()
	defer e.life.Unlock()
	rot := e.rot
	if rot == nil {
		return false, fmt.Errorf("core: no rotation in progress")
	}
	if rot.nextWave >= len(rot.waves) {
		return true, nil
	}
	slots := rot.waves[rot.nextWave]
	rot.nextWave++
	if delivered {
		if err := e.migrateSlotsLocked(rot, slots); err != nil {
			return false, err
		}
	}
	return rot.nextWave >= len(rot.waves), nil
}

// migrateSlotsLocked applies the current bundle to one wave of fleet
// slots. Eager devices run the full device-side path each: verify the
// envelope, enforce version monotonicity, open the broadcast with their
// own tree keys, install the recovered ring as primary and keep the old
// material as grace. Packed slots share one representative verification
// per wave (the path is identical for every non-revoked device) and then
// record the new epoch; materializeDevice rebuilds them in the migrated
// state, grace included, while the window is open.
func (e *Engine) migrateSlotsLocked(rot *rotationState, slots []int) error {
	pub := tdscrypto.BundleVerifier(e.cfg.MasterKey)
	wantRing := e.keyAuth.RingAt(uint64(rot.newEpoch))
	newWire := int(rot.newEpoch) + 1
	km, err := e.keyMaterial(rot.newEpoch)
	if err != nil {
		return err
	}
	verified := false
	for _, slot := range slots {
		id := e.deviceIDLocked(slot)
		if e.revoked[id] {
			continue // revoked after scheduling; cannot open the bundle
		}
		t := e.fleet[slot]
		if t == nil && verified {
			e.packed.epoch[slot] = rot.newEpoch
			continue
		}
		b, err := tdscrypto.AcceptTrustBundle(rot.bundle, pub, rot.version-1)
		if err != nil {
			return fmt.Errorf("core: device %s rejected the trust bundle: %w", id, err)
		}
		dk, err := e.bcast.DeviceKeys(slot)
		if err != nil {
			return err
		}
		ring, err := dk.OpenRing(b.Broadcast)
		if err != nil {
			return fmt.Errorf("core: device %s failed to open the rotation broadcast: %w", id, err)
		}
		if ring != wantRing {
			return fmt.Errorf("core: device %s recovered a ring that is not epoch %d's", id, rot.newEpoch)
		}
		if t == nil {
			e.packed.epoch[slot] = rot.newEpoch
			verified = true
			continue
		}
		t.Migrate(newWire, km)
	}
	return nil
}

// CompleteRotation applies any pending waves, closes the grace window —
// the SSI's admit gate reverts to exact-epoch matching and every device
// drops its previous-epoch material — and retires the rotation state.
// Call it once the in-flight queries posted at the old epoch have
// drained; completing earlier turns their remaining deposits into
// deposit-stale rejections (degraded coverage, never wrong answers).
func (e *Engine) CompleteRotation() error {
	e.life.Lock()
	defer e.life.Unlock()
	return e.completeRotationLocked()
}

// completeRotationLocked is CompleteRotation under an already-held
// lifecycle lock.
func (e *Engine) completeRotationLocked() error {
	rot := e.rot
	if rot == nil {
		return fmt.Errorf("core: no rotation in progress")
	}
	for rot.nextWave < len(rot.waves) {
		if err := e.migrateSlotsLocked(rot, rot.waves[rot.nextWave]); err != nil {
			return err
		}
		rot.nextWave++
	}
	for _, t := range e.fleet {
		if t != nil {
			t.DropGrace()
		}
	}
	e.rot = nil
	e.pushEpochPolicyLocked(false)
	return nil
}

// rotationInProgress reports whether a live rotation is between Begin and
// Complete.
func (e *Engine) rotationInProgress() bool {
	e.life.RLock()
	defer e.life.RUnlock()
	return e.rot != nil
}

// scriptedRotation drives a fault plan's RotationScript from one commit
// point of the collection walk: it counts committed envelopes, fires
// BeginRotation at the scripted count, and advances rollout waves every
// WaveEvery further commits. It runs strictly in deposit commit order —
// the order that is identical for every CollectWorkers setting — so the
// rotation strikes the same logical instant in every configuration.
// Rotation lifecycle events land in the recovery ledger (and through its
// mirrors, the trace and the journal).
func (e *Engine) scriptedRotation(rs *runState, now time.Time) error {
	sc := rs.rotScript
	if sc == nil {
		return nil
	}
	rs.commits++
	if sc.AfterDeposits > 0 && rs.commits == sc.AfterDeposits && !e.rotationInProgress() {
		if err := e.BeginRotation(sc.Waves, sc.Revoke...); err != nil {
			return err
		}
		rs.rotStarted = rs.commits
		e.record(rs, ssi.LedgerEntry{
			Kind: "rotation-begin", Phase: "collection", At: now,
		})
		if sc.WaveEvery <= 0 {
			return e.scriptedWaves(rs, sc, now, -1)
		}
		return nil
	}
	if e.rotationInProgress() && sc.WaveEvery > 0 && rs.commits > rs.rotStarted &&
		(rs.commits-rs.rotStarted)%sc.WaveEvery == 0 {
		return e.scriptedWaves(rs, sc, now, 1)
	}
	return nil
}

// scriptedWaves advances n rollout waves (all remaining when n < 0) under
// the script's delivery faults, honoring a torn rollout by never applying
// the final wave.
func (e *Engine) scriptedWaves(rs *runState, sc *faultplan.RotationScript, now time.Time, n int) error {
	for n != 0 {
		if e.pendingWaves() == 0 {
			return nil // rollout already fully applied; nothing to record
		}
		if sc.TornRollout && e.pendingWaves() <= 1 {
			return nil // the last wave never lands; the fleet stays split
		}
		done, err := e.advanceRotationWave(!sc.DropBundle)
		if err != nil {
			return err
		}
		e.record(rs, ssi.LedgerEntry{
			Kind: "rotation-wave", Phase: "collection", At: now,
		})
		if done {
			return nil
		}
		if n > 0 {
			n--
		}
	}
	return nil
}

// pendingWaves counts rollout waves not yet applied.
func (e *Engine) pendingWaves() int {
	e.life.RLock()
	defer e.life.RUnlock()
	if e.rot == nil {
		return 0
	}
	return len(e.rot.waves) - e.rot.nextWave
}

// rotateKeysLocked advances the authority one epoch under an
// already-held lifecycle lock. Queriers built afterwards and devices
// enrolled afterwards use the new ring; nobody else holds it until the
// rotation's bundle reaches them.
func (e *Engine) rotateKeysLocked() {
	e.keyAuth.Rotate()
	e.keys = e.keyAuth.Ring()
	e.verifier = tdscrypto.NewCommitter(e.keys.K2)
}

// RevokeAndRotate is a rotation between queries: a single-wave rotation
// begun and completed under one hold of the lifecycle lock. It revokes
// the given devices' broadcast slots (none for a plain rotation), rotates
// the key ring, and distributes the new ring with the complete-subtree
// broadcast scheme (footnote 7). Every non-revoked device opens the
// broadcast and migrates — a device stranded on an older epoch included;
// the revoked ones cannot decrypt it, stay on the dead epoch, and drop
// out of every future query (Metrics.CollectErrors). Feed it the repeat
// offenders from Metrics.Suspects to close the audit loop: detect,
// revoke, rotate.
func (e *Engine) RevokeAndRotate(ids ...string) error {
	e.life.Lock()
	defer e.life.Unlock()
	if e.rot != nil {
		return fmt.Errorf("core: a live rotation is in progress; complete it first")
	}
	if err := e.beginRotationLocked(1, ids); err != nil {
		return err
	}
	return e.completeRotationLocked()
}

// ensureBroadcastLocked stands up the broadcast tree over the current
// fleet, and rebuilds it, the revoked slots revoked again, once the fleet
// has outgrown it. On real hardware the path keys are installed at
// enrollment; the simulation issues them on demand from the fleet roster.
func (e *Engine) ensureBroadcastLocked() error {
	if e.bcast != nil && e.bcast.Capacity() >= len(e.fleet) {
		return nil
	}
	bc, err := tdscrypto.NewBroadcastAuthority(e.cfg.MasterKey, len(e.fleet))
	if err != nil {
		return err
	}
	for slot := range e.fleet {
		if e.revoked[e.deviceIDLocked(slot)] {
			if err := bc.Revoke(slot); err != nil {
				return err
			}
		}
	}
	e.bcast = bc
	if e.revoked == nil {
		e.revoked = make(map[string]bool)
	}
	return nil
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
// policy on the SSI. SetEpochPolicy is part of ssi.Service, so every
// injected implementation carries it.
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
