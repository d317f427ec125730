package core

import (
	"fmt"

	"github.com/trustedcells/tcq/internal/rng"
	"github.com/trustedcells/tcq/internal/storage"
	"github.com/trustedcells/tcq/internal/tds"
)

// AddTDS enrolls one eager TDS hosting the given local database at the
// authority's current epoch, wired to the engine's shared plan cache.
// Like a packed slot it borrows the epoch's key material: one ring per
// epoch, expanded once. When the extended threat model is active, a
// deterministic share of devices is marked compromised at enrollment.
func (e *Engine) AddTDS(db *storage.LocalDB) (*tds.TDS, error) {
	e.life.Lock()
	defer e.life.Unlock()
	epoch := uint32(e.keyAuth.Epoch())
	km, err := e.keyMaterial(epoch)
	if err != nil {
		return nil, err
	}
	id := fmt.Sprintf("tds-%05d", len(e.fleet))
	t := tds.NewWithMaterial(id, db, km, e.cfg.Policy, e.authority)
	t.SetEpoch(int(epoch) + 1)
	t.Shared = e.planCache
	t.Corrupt = e.compromised(id)
	e.fleet = append(e.fleet, t)
	return t, nil
}

// compromised is the enrolment draw of the extended threat model: whether
// the device of this ID belongs to Config.CompromisedFraction, a function
// of (Seed, ID) so both fleet representations mark the same silicon.
func (e *Engine) compromised(id string) bool {
	f := e.cfg.CompromisedFraction
	return f > 0 && rng.New(e.cfg.Seed, "", rng.Enrol|uint64(rng.Hash(id))).Float64() < f
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

// The packed fleet representation (Config.PackedFleet): instead of one
// live *tds.TDS per enrolled device — a materialized LocalDB, a plans
// map, and expanded key schedules each — the engine keeps a serialized
// database blob per device plus a few bytes of enrollment state, and
// rebuilds a device only for the instants it is actually connected. Key
// rings are derived on demand from the KeyAuthority (RingAt) and their
// expanded form is cached per epoch, so an entire connection wave shares
// one set of AES key schedules and HMAC pools. Device identity, RNG
// seeding, corruption draws and key epochs are all reproduced exactly,
// which is what keeps packed and eager fleets bit-identical in every
// observable: rows, metrics, ledgers and traces.

// packedFleet is the slot-indexed store behind the nil entries of
// Engine.fleet. Slot i's blob region is blob[end[i-1]:end[i]] (zero
// length for eagerly enrolled slots), so the whole fleet costs one
// backing array plus ~13 bytes of bookkeeping per device.
type packedFleet struct {
	blob    []byte   // concatenated storage.PackDB blobs, in slot order
	end     []int64  // per slot: end offset of its blob region
	epoch   []uint32 // key-authority epoch the slot last enrolled at
	corrupt []bool   // compromised-at-enrollment flag (extended threat model)
}

// pad extends the bookkeeping through slot n-1 with zero-length regions,
// covering slots that were enrolled eagerly via AddTDS.
func (p *packedFleet) pad(n int) {
	for len(p.end) < n {
		p.end = append(p.end, int64(len(p.blob)))
		p.epoch = append(p.epoch, 0)
		p.corrupt = append(p.corrupt, false)
	}
}

// addPacked appends one packed slot.
func (p *packedFleet) addPacked(blob []byte, epoch uint32, corrupt bool) {
	p.blob = append(p.blob, blob...)
	p.end = append(p.end, int64(len(p.blob)))
	p.epoch = append(p.epoch, epoch)
	p.corrupt = append(p.corrupt, corrupt)
}

// region returns slot's serialized database.
func (p *packedFleet) region(slot int) []byte {
	start := int64(0)
	if slot > 0 {
		start = p.end[slot-1]
	}
	return p.blob[start:p.end[slot]]
}

// packedID is the canonical device ID of a fleet slot — by construction
// identical to the ID AddTDS would have assigned the same slot.
func packedID(slot int) string { return fmt.Sprintf("tds-%05d", slot) }

// deviceID names a fleet slot without materializing it.
func (e *Engine) deviceID(slot int) string {
	e.life.RLock()
	defer e.life.RUnlock()
	return e.deviceIDLocked(slot)
}

// deviceIDLocked is deviceID for callers already holding the lifecycle
// lock (rotation and revocation replace eager slots in place, so the
// slot read needs it).
func (e *Engine) deviceIDLocked(slot int) string {
	if t := e.fleet[slot]; t != nil {
		return t.ID
	}
	return packedID(slot)
}

// deviceAt reads one fleet slot under the lifecycle lock.
func (e *Engine) deviceAt(slot int) *tds.TDS {
	e.life.RLock()
	defer e.life.RUnlock()
	return e.fleet[slot]
}

// isRevoked reports whether a device ID has been expelled, under the
// lifecycle read lock — hot paths (live-list builds, collection walks)
// would otherwise race a concurrent revocation.
func (e *Engine) isRevoked(id string) bool {
	e.life.RLock()
	defer e.life.RUnlock()
	return e.revoked[id]
}

// keyMaterial expands (and caches) the key ring of one epoch. Every
// device enrolled at the same epoch holds the same ring, so a million
// packed devices share one AES key schedule, HMAC pool and committer
// per epoch instead of carrying their own.
func (e *Engine) keyMaterial(epoch uint32) (*tds.KeyMaterial, error) {
	e.kmMu.Lock()
	defer e.kmMu.Unlock()
	if km, ok := e.kmCache[epoch]; ok {
		return km, nil
	}
	km, err := tds.NewKeyMaterial(e.keyAuth.RingAt(uint64(epoch)))
	if err != nil {
		return nil, err
	}
	if e.kmCache == nil {
		e.kmCache = make(map[uint32]*tds.KeyMaterial)
	}
	e.kmCache[epoch] = km
	return km, nil
}

// materializeDevice rebuilds one packed slot into a live TDS: unpack the
// database against the fleet's shared schema (so the shared plan cache
// keys match), borrow the epoch's expanded key material, and restore the
// enrollment-time corruption flag. A slot that migrated during a
// still-open rotation grace window comes back exactly as a device that
// lived through the migration: new primary material, previous epoch's
// material held as grace. Safe for concurrent use; the caller owns the
// returned device and drops it when the connection ends.
func (e *Engine) materializeDevice(slot int) (*tds.TDS, error) {
	if t := e.deviceAt(slot); t != nil {
		return t, nil
	}
	db, err := storage.UnpackDB(e.schema, e.packed.region(slot))
	if err != nil {
		return nil, fmt.Errorf("core: slot %d: %w", slot, err)
	}
	e.life.RLock()
	epoch := e.packed.epoch[slot]
	corrupt := e.packed.corrupt[slot]
	grace := e.rot != nil && epoch == e.rot.newEpoch && epoch > 0
	e.life.RUnlock()
	km, err := e.keyMaterial(epoch)
	if err != nil {
		return nil, err
	}
	var t *tds.TDS
	if grace {
		// Build the device at its pre-migration epoch, then migrate it —
		// the same state transition the live rotation performed, so the
		// rebuilt device keeps serving in-flight old-epoch queries.
		prevKM, err := e.keyMaterial(epoch - 1)
		if err != nil {
			return nil, err
		}
		t = tds.NewWithMaterial(packedID(slot), db, prevKM, e.cfg.Policy, e.authority)
		t.SetEpoch(int(epoch)) // old wire epoch: (epoch-1)+1
		t.Migrate(int(epoch)+1, km)
	} else {
		t = tds.NewWithMaterial(packedID(slot), db, km, e.cfg.Policy, e.authority)
		t.SetEpoch(int(epoch) + 1)
	}
	t.Shared = e.planCache
	t.Corrupt = corrupt
	return t, nil
}

// slotServes reports whether the device in one fleet slot can open
// queries posted at the given wire epoch — without materializing packed
// slots. During a live rotation's grace window a migrated device serves
// its new epoch and the previous one; an unmigrated device serves only
// its own. Epoch 0 means "unknown" and matches everything.
func (e *Engine) slotServes(slot, wireEpoch int) bool {
	e.life.RLock()
	defer e.life.RUnlock()
	return e.slotServesLocked(slot, wireEpoch)
}

// slotServesLocked is slotServes for callers holding the lifecycle lock.
func (e *Engine) slotServesLocked(slot, wireEpoch int) bool {
	if t := e.fleet[slot]; t != nil {
		return t.ServesEpoch(wireEpoch)
	}
	epoch := e.packed.epoch[slot]
	grace := e.rot != nil && epoch == e.rot.newEpoch && epoch > 0
	return wireEpoch == 0 || int(epoch)+1 == wireEpoch || (grace && int(epoch) == wireEpoch)
}

// runDevice materializes a slot for the rest of one run, caching the
// device in the run state so the aggregation/filtering phases — which
// draw the same workers repeatedly — pay the unpack once. Collection
// deliberately bypasses this cache: a walk over a million-device fleet
// must not accumulate a million live devices.
func (e *Engine) runDevice(rs *runState, slot int) (*tds.TDS, error) {
	if t := e.deviceAt(slot); t != nil {
		return t, nil
	}
	if t, ok := rs.devs[slot]; ok {
		return t, nil
	}
	t, err := e.materializeDevice(slot)
	if err != nil {
		return nil, err
	}
	if rs.devs == nil {
		rs.devs = make(map[int]*tds.TDS)
	}
	rs.devs[slot] = t
	return t, nil
}

// provisionPacked is ProvisionFleet's packed branch: serialize each
// populated database into the shared blob and discard the original, so
// enrollment retains nothing of populate's per-device scratch.
func (e *Engine) provisionPacked(n int, populate func(i int) *storage.LocalDB) error {
	if e.packed == nil {
		e.packed = &packedFleet{}
	}
	epoch := uint32(e.keyAuth.Epoch())
	for i := 0; i < n; i++ {
		slot := len(e.fleet)
		e.packed.pad(slot)
		e.packed.addPacked(storage.PackDB(populate(i)), epoch, e.compromised(packedID(slot)))
		e.fleet = append(e.fleet, nil)
	}
	return nil
}
