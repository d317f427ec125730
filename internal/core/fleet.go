package core

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"github.com/trustedcells/tcq/internal/rng"
	"github.com/trustedcells/tcq/internal/storage"
	"github.com/trustedcells/tcq/internal/tds"
)

// The fleet is kept the way the paper's devices keep their data: in flash,
// read on demand (Section 2.1). An enrolled device is a slot — its
// database packed into the fleet's one blob, its key epoch, its
// compromised-at-enrollment bit and its ID — and no live device stands
// behind it. A device exists only while it works: waking a slot re-aims a
// tds.TDS that is already allocated (the collection walk holds one per
// window slot, a run's phases one per crew worker) at the slot's ID, bit
// and key epoch, the expanded key material borrowed from the epoch's one
// expansion. A collection also loads the slot's rows into the device's
// reused buffers, its texts read from the fleet's one table of the
// distinct texts packed, so a steady-state wake allocates nothing
// (TestDeviceWakeDoesNotAllocate). Device identity, RNG seeding,
// corruption draws and key epochs are all functions of the slot, so what
// a wake rebuilds is what a device that lived through every enrollment,
// rotation and insert would hold.

// fleet is the slot-indexed store of the enrolled devices. Slot i's
// database is blob[start[i]:end[i]]. Regions are only ever appended:
// Insert re-packs a slot at the blob's end, so a region a wake is reading
// is never written. Once dead regions outweigh live ones, the live ones
// move to a fresh blob; a wake still reading the old one keeps it.
type fleet struct {
	ids     []string      // per slot: the device ID, interned at provisioning
	blob    []byte        // storage.PackDB blobs
	live    int64         // the bytes of blob some slot's region holds
	start   []int64       // per slot: where its region begins
	end     []int64       // per slot: where its region ends
	epoch   []uint32      // per slot: key-authority epoch it last enrolled at
	corrupt []bool        // per slot: compromised at enrollment (extended threat model)
	texts   storage.Texts // every text packed; replaced, never written, once read
}

// size is the number of enrolled devices.
func (f *fleet) size() int { return len(f.ids) }

// region returns slot's packed database.
func (f *fleet) region(slot int) []byte { return f.blob[f.start[slot]:f.end[slot]] }

// pack points slot at a new packed database, appended to the blob.
func (f *fleet) pack(slot int, db *storage.LocalDB) {
	f.texts = f.texts.With(db)
	f.live -= f.end[slot] - f.start[slot]
	f.start[slot], f.end[slot] = 0, 0
	if dead := int64(len(f.blob)) - f.live; dead > f.live {
		blob := make([]byte, 0, 2*f.live)
		for i := range f.start {
			blob = append(blob, f.region(i)...)
			f.start[i], f.end[i] = int64(len(blob))-(f.end[i]-f.start[i]), int64(len(blob))
		}
		f.blob = blob
	}
	f.start[slot] = int64(len(f.blob))
	f.blob = append(f.blob, storage.PackDB(db)...)
	f.end[slot] = int64(len(f.blob))
	f.live += f.end[slot] - f.start[slot]
}

// ProvisionFleet enrolls n TDSs whose databases are produced by populate,
// at the authority's current epoch; the k-th device enrolled on the engine
// (from 0) is "tds-%05d" of k. Each database is packed into the
// fleet's blob during its own enrollment and not referenced afterwards, so
// the engine retains nothing of populate's scratch state. When the
// extended threat model is active, a deterministic share of devices is
// marked compromised at enrollment.
func (e *Engine) ProvisionFleet(n int, populate func(i int) *storage.LocalDB) error {
	e.life.Lock()
	defer e.life.Unlock()
	f := &e.fleet
	epoch := uint32(e.keyAuth.Epoch())
	for i := 0; i < n; i++ {
		slot := f.size()
		id := fmt.Sprintf("tds-%05d", slot)
		f.ids = append(f.ids, id)
		f.start, f.end = append(f.start, 0), append(f.end, 0)
		f.epoch = append(f.epoch, epoch)
		f.corrupt = append(f.corrupt, e.compromised(id))
		f.pack(slot, populate(i))
	}
	return nil
}

// Insert adds a row to a table of one enrolled device: the physical world
// between two collection windows (Section 2.3), a meter recording a
// reading. The row is validated against the schema and the device's slot
// re-packed with it, so every wake from then on reads it; a query already
// past the device's wake does not.
func (e *Engine) Insert(deviceID, table string, row storage.Row) error {
	e.life.Lock()
	defer e.life.Unlock()
	slot, ok := e.slotOf(deviceID)
	if !ok {
		return fmt.Errorf("core: unknown device %q", deviceID)
	}
	db := storage.NewLocalDB(e.schema)
	if err := db.Load(e.fleet.region(slot), nil); err != nil {
		return fmt.Errorf("core: slot %d: %w", slot, err)
	}
	if err := db.Insert(table, row); err != nil {
		return err
	}
	e.fleet.pack(slot, db)
	return nil
}

// slotOf resolves an enrolled device's ID to its slot.
func (e *Engine) slotOf(id string) (int, bool) {
	slot, err := strconv.Atoi(strings.TrimPrefix(id, "tds-"))
	return slot, err == nil && slot >= 0 && slot < e.fleet.size() && e.fleet.ids[slot] == id
}

// compromised is the enrolment draw of the extended threat model: whether
// the device of this ID belongs to Config.CompromisedFraction, a function
// of (Seed, ID).
func (e *Engine) compromised(id string) bool {
	f := e.cfg.CompromisedFraction
	return f > 0 && rng.New(e.cfg.Seed, "", rng.Enrol|uint64(rng.Hash(id))).Float64() < f
}

// isRevoked reports whether a device ID has been expelled, under the
// lifecycle read lock — hot paths (live-list builds, collection walks)
// would otherwise race a concurrent revocation.
func (e *Engine) isRevoked(id string) bool {
	e.life.RLock()
	defer e.life.RUnlock()
	return e.revoked[id]
}

// newShell allocates a device for waking slots into: the fleet's policy,
// authority and plan cache, over a database of its own.
func (e *Engine) newShell() *tds.TDS {
	t := tds.NewWithMaterial("", storage.NewLocalDB(e.schema), nil, e.cfg.Policy, e.authority)
	t.Shared = e.planCache
	return t
}

// aim re-aims t at a slot: its ID, its compromised bit, and the key
// material of its epoch, one expansion shared by every device aimed at it
// (so a million devices share one AES key schedule, HMAC pool and
// committer per epoch). A slot migrated by a rotation whose grace window
// is still open also holds the previous epoch's material, as the device
// that lived through the migration does. Phase work needs no more; aim
// returns the slot's packed database and the fleet's texts for a wake.
func (e *Engine) aim(t *tds.TDS, slot int) ([]byte, storage.Texts) {
	e.life.RLock()
	defer e.life.RUnlock()
	epoch := e.fleet.epoch[slot]
	var prev *tds.KeyMaterial
	if e.rot != nil && epoch == e.rot.newEpoch && epoch > 0 {
		prev = e.mats[epoch-1]
	}
	t.ID, t.Corrupt = e.fleet.ids[slot], e.fleet.corrupt[slot]
	t.SetKeys(int(epoch)+1, e.mats[epoch], prev)
	return e.fleet.region(slot), e.fleet.texts
}

// wake aims t at a slot and loads the slot's rows into t.DB's buffers.
func (e *Engine) wake(t *tds.TDS, slot int) error {
	region, texts := e.aim(t, slot)
	if err := t.DB.Load(region, texts); err != nil {
		return fmt.Errorf("core: slot %d: %w", slot, err)
	}
	return nil
}

// idle holds what runs borrow between them with the buffers it grew (a
// slot's rows and tuple buffer, a fold scratch, a collector's scratch), so
// later queries run in them without allocating.
type idle[T any] struct {
	mu   sync.Mutex
	free []T
}

// take returns n, idle ones first and the rest made by fresh; put gives
// them back.
func (p *idle[T]) take(n int, fresh func() T) []T {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := max(len(p.free)-n, 0)
	ts := append(make([]T, 0, n), p.free[k:]...)
	p.free = p.free[:k]
	for len(ts) < n {
		ts = append(ts, fresh())
	}
	return ts
}

func (p *idle[T]) put(ts []T) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, ts...)
}

// slotServes reports whether the device in one fleet slot can open
// queries posted at the given wire epoch; the caller holds the lifecycle
// lock. During a live rotation's grace window a migrated device serves its
// new epoch and the previous one; an unmigrated device serves only its
// own. It is the engine's one rule for which epoch a slot serves.
func (e *Engine) slotServes(slot, wireEpoch int) bool {
	epoch := e.fleet.epoch[slot]
	grace := e.rot != nil && epoch == e.rot.newEpoch && epoch > 0
	return int(epoch)+1 == wireEpoch || (grace && int(epoch) == wireEpoch)
}
