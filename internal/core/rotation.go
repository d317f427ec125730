package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"github.com/trustedcells/tcq/internal/faultplan"
	"github.com/trustedcells/tcq/internal/rng"
	"github.com/trustedcells/tcq/internal/ssi"
	"github.com/trustedcells/tcq/internal/tds"
	"github.com/trustedcells/tcq/internal/tdscrypto"
)

// Keys change one way: a broadcast rotation (the paper's "these keys may
// change over time", Section 3.1, distributed as footnote 7's broadcast
// encryption). It runs as a coordinated sequence the fleet absorbs
// mid-query:
//
//  1. The rotation begins: the authority rotates, one signed
//     tdscrypto.TrustBundle (new epoch + revocation set + the new ring
//     broadcast-encrypted to exactly the surviving devices) is published,
//     the SSI's grace window opens (deposits of epoch e and e-1 both
//     admit; revoked devices are rejected immediately — no grace for
//     revocation), and the staged rollout schedule is derived.
//  2. Each wave delivers the bundle to its devices. Each migrating device
//     verifies the envelope signature, enforces version monotonicity
//     (replay defense), opens the broadcast with its own tree keys, and
//     installs the new ring as primary while keeping the old epoch's
//     material as grace — so queries posted before its migration keep
//     opening on it mid-flight.
//  3. The window closes itself: once every wave has been delivered and
//     no run posted at the old epoch is left in flight, the run that
//     ends last retires the rotation and the SSI and the devices drop the
//     previous epoch (leaveEpoch).
//
// There is one way in. Between queries RevokeAndRotate is the whole
// sequence as one call; mid-query a fault plan's RotationScript begins
// the rotation and delivers its waves. The wave schedule is a pure
// function of (engine seed, target epoch, device ID) — never of slot
// order, worker count, goroutine scheduling or time — so a rotation
// scripted at a deterministic trigger point yields bit-identical runs for
// every CollectWorkers setting, which is what the composed-fault
// generator's cross-axis clause pins.

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

// beginRotationLocked starts a live key rotation under an already-held
// lifecycle lock, unless one is in progress: revoke the named devices
// (if any), rotate the authority, publish the signed trust bundle, open
// the grace window on the SSI, and derive the staged rollout schedule. No
// device migrates yet: advanceWaveLocked delivers the waves. Queries
// posted at the old epoch keep running throughout: unmigrated devices
// serve them on their primary material, migrated ones on their grace
// material, and the SSI admits both epochs until the window closes.
func (e *Engine) beginRotationLocked(waves int, revoke []string) error {
	if e.rot != nil {
		return fmt.Errorf("core: a live rotation is in progress until its last wave lands and its old epoch's queries end")
	}
	waves = max(waves, 1)
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
	if err := e.rotateKeysLocked(); err != nil {
		return err
	}
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
	for slot, id := range e.fleet.ids {
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

// advanceWaveLocked delivers the trust bundle to the next rollout wave of
// the rotation in progress, which has one pending, and migrates its
// devices. With delivered false the SSI lost the bundle: nobody in the
// wave migrates, and the grace window keeps the old epoch serviceable.
func (e *Engine) advanceWaveLocked(delivered bool) error {
	rot := e.rot
	rot.nextWave++
	if !delivered {
		return nil
	}
	return e.migrateSlotsLocked(rot, rot.waves[rot.nextWave-1])
}

// migrateSlotsLocked applies the current bundle to one wave of fleet
// slots. Every device runs the device-side path: verify the envelope,
// enforce version monotonicity, open the broadcast with its own tree keys,
// and check the recovered ring is the new epoch's. Its slot then records
// the new epoch; a wake rebuilds it in the migrated state, the old
// epoch's material held as grace while the window is open.
func (e *Engine) migrateSlotsLocked(rot *rotationState, slots []int) error {
	pub := tdscrypto.BundleVerifier(e.cfg.MasterKey)
	wantRing := e.keyAuth.RingAt(uint64(rot.newEpoch))
	for _, slot := range slots {
		id := e.fleet.ids[slot]
		if e.revoked[id] {
			continue // revoked after scheduling; cannot open the bundle
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
		e.fleet.epoch[slot] = rot.newEpoch
	}
	return nil
}

// completeRotationLocked closes the grace window of a rotation whose
// waves have all been delivered: the SSI's admit gate reverts to
// exact-epoch matching, no slot wakes with previous-epoch material any
// more, and the rotation state is retired.
func (e *Engine) completeRotationLocked() {
	e.rot = nil
	e.pushEpochPolicyLocked(false)
}

// enterEpoch returns the wire epoch a run posts at — the 1-based key
// epoch stamped on query posts and deposit envelopes (KeyAuthority epochs
// are 0-based; on the wire 0 means "unknown") — and counts the run in
// flight there, under one hold of the lifecycle lock.
func (e *Engine) enterEpoch() int {
	e.life.Lock()
	defer e.life.Unlock()
	epoch := int(e.keyAuth.Epoch()) + 1
	e.posted[epoch]++
	return epoch
}

// leaveEpoch ends a run posted at epoch. Once every wave of the rotation in
// progress has been delivered and no run posted at the old epoch is left,
// the grace window closes: a torn rollout stays open, and the run that
// ends last has already settled, so no query's record moves.
func (e *Engine) leaveEpoch(epoch int) {
	e.life.Lock()
	defer e.life.Unlock()
	e.posted[epoch]--
	// The old wire epoch is numbered as the new authority epoch is.
	if rot := e.rot; rot != nil && rot.nextWave == len(rot.waves) && e.posted[int(rot.newEpoch)] == 0 {
		e.completeRotationLocked()
	}
}

// rotationInProgress reports whether a live rotation has begun and its
// grace window is still open.
func (e *Engine) rotationInProgress() bool {
	e.life.RLock()
	defer e.life.RUnlock()
	return e.rot != nil
}

// scriptedRotation drives a fault plan's RotationScript from one commit
// point of the collection walk: it counts committed envelopes, begins the
// rotation at the scripted count, and advances rollout waves every
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
		e.life.Lock()
		err := e.beginRotationLocked(sc.Waves, sc.Revoke)
		e.life.Unlock()
		if err != nil {
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
	for ; n != 0; n-- {
		e.life.Lock()
		pending := 0
		if e.rot != nil {
			pending = len(e.rot.waves) - e.rot.nextWave
		}
		if sc.TornRollout {
			pending-- // the last wave never lands; the fleet stays split
		}
		var err error
		if pending > 0 {
			err = e.advanceWaveLocked(!sc.DropBundle)
		}
		e.life.Unlock()
		if err != nil || pending <= 0 {
			return err
		}
		e.record(rs, ssi.LedgerEntry{
			Kind: "rotation-wave", Phase: "collection", At: now,
		})
		if pending == 1 {
			return nil
		}
	}
	return nil
}

// rotateKeysLocked advances the authority one epoch under an
// already-held lifecycle lock, its material expanded first. Queriers built
// afterwards and devices enrolled afterwards use the new ring; nobody else
// holds it until the rotation's bundle reaches them.
func (e *Engine) rotateKeysLocked() error {
	km, err := tds.NewKeyMaterial(e.keyAuth.RingAt(e.keyAuth.Epoch() + 1))
	if err != nil {
		return err
	}
	e.keyAuth.Rotate()
	e.keys = e.keyAuth.Ring()
	e.mats = append(e.mats, km)
	return nil
}

// RevokeAndRotate is a rotation between queries: a single-wave rotation
// begun, delivered and closed under one hold of the lifecycle lock. It revokes
// the given devices' broadcast slots (none for a plain rotation), rotates
// the key ring, and distributes the new ring with the complete-subtree
// broadcast scheme (footnote 7). Every non-revoked device opens the
// broadcast and migrates — a device stranded on an older epoch included;
// the revoked ones cannot decrypt it, stay on the dead epoch, and drop
// out of every future query (Metrics.CollectErrors). Feed it the repeat
// offenders from Metrics.Suspects to close the audit loop: detect,
// revoke, rotate. A rollout a query left open (torn, or short of waves) it
// closes first once no run posted at its old epoch is in flight: the
// rotation it begins reaches the devices that rollout stranded too.
func (e *Engine) RevokeAndRotate(ids ...string) error {
	e.life.Lock()
	defer e.life.Unlock()
	if rot := e.rot; rot != nil && e.posted[int(rot.newEpoch)] == 0 {
		e.completeRotationLocked()
	}
	if err := e.beginRotationLocked(1, ids); err != nil {
		return err
	}
	if err := e.advanceWaveLocked(true); err != nil {
		return err
	}
	e.completeRotationLocked()
	return nil
}

// ensureBroadcastLocked stands up the broadcast tree over the current
// fleet, and rebuilds it, the revoked slots revoked again, once the fleet
// has outgrown it. On real hardware the path keys are installed at
// enrollment; the simulation issues them on demand from the fleet roster.
func (e *Engine) ensureBroadcastLocked() error {
	if e.bcast != nil && e.bcast.Capacity() >= e.fleet.size() {
		return nil
	}
	bc, err := tdscrypto.NewBroadcastAuthority(e.cfg.MasterKey, e.fleet.size())
	if err != nil {
		return err
	}
	for slot, id := range e.fleet.ids {
		if e.revoked[id] {
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
	slots := make([]int, len(ids))
	for i, id := range ids {
		slot, ok := e.slotOf(id)
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
