package core

import (
	"bytes"
	"context"
	"runtime"
	"slices"
	"testing"

	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/sqlexec"
	"github.com/trustedcells/tcq/internal/storage"
)

// TestEngineInsert: Insert takes a row only for an enrolled device's ID
// and a row its table admits; a refused row leaves the fleet as it was.
// An accepted row moves the slot's database to a region at the blob's end,
// writing no byte of the blob a wake may be reading (a compaction copies
// the live regions out of it), and keeps the slot's key epoch and
// compromised bit.
func TestEngineInsert(t *testing.T) {
	power := storage.Row{storage.Int(2), storage.Float(61), storage.Int(77)}
	for _, tc := range []struct {
		name, id, table string
		row             storage.Row
	}{
		{"unknown-device", "tds-00004", "Power", power},
		{"foreign-id", "meter-2", "Power", power},
		{"unpadded-id", "tds-2", "Power", power},
		{"negative-slot", "tds--0002", "Power", power},
		{"unknown-table", "tds-00002", "Tariff", power},
		{"wrong-arity", "tds-00002", "Power", power[:2]},
		{"wrong-kind", "tds-00002", "Power", storage.Row{storage.Str("2"), storage.Float(61), storage.Int(77)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, 4, nil)
			fl := &f.eng.fleet
			blob, start, end := slices.Clone(fl.blob), slices.Clone(fl.start), slices.Clone(fl.end)
			if err := f.eng.Insert(tc.id, tc.table, tc.row); err == nil {
				t.Fatalf("Insert(%q, %q, %v) accepted", tc.id, tc.table, tc.row)
			}
			if !bytes.Equal(fl.blob, blob) || !slices.Equal(fl.start, start) || !slices.Equal(fl.end, end) {
				t.Error("a refused row changed the fleet")
			}
		})
	}
	t.Run("accepted", func(t *testing.T) {
		f := newFixture(t, 4, nil)
		fl := &f.eng.fleet
		strandFleet(f.eng)
		fl.corrupt[2] = true
		epoch, corrupt := slices.Clone(fl.epoch), slices.Clone(fl.corrupt)
		for range 3 {
			old := fl.blob
			was := slices.Clone(old)
			f.insert(t, 2, "Power", power)
			if fl.end[2] != int64(len(fl.blob)) || !bytes.Equal(fl.region(2), storage.PackDB(f.dbs[2])) || !bytes.Equal(old, was) {
				t.Fatalf("slot 2 at [%d, %d) of %d bytes, want its database at the end, the old blob unwritten",
					fl.start[2], fl.end[2], len(fl.blob))
			}
		}
		if !slices.Equal(fl.epoch, epoch) || !slices.Equal(fl.corrupt, corrupt) {
			t.Errorf("epochs %v, compromised %v after Insert; want %v, %v", fl.epoch, fl.corrupt, epoch, corrupt)
		}
	})
}

// TestDeviceWakeDoesNotAllocate: once a device's buffers have grown to
// the largest slot it meets, waking a slot — ID, keys, rows decoded with
// texts read from the fleet's table — scanning its rows through the device
// and re-aiming it at the next slot allocate nothing, and neither does
// re-keying a phase device, which loads no row. What a wake loads is the
// slot's database, row for row.
func TestDeviceWakeDoesNotAllocate(t *testing.T) {
	f := newFixture(t, 12, nil)
	plan := compilePlan(t, `SELECT C.district, P.cons FROM Power P, Consumer C WHERE C.cid = P.cid`, f.eng.Schema())
	dev, phase := f.eng.newShell(), f.eng.newShell()
	slot, scanned, scan := 0, 0, new(sqlexec.Scan)
	wakeScanNext := func() {
		err := f.eng.wake(dev, slot)
		if err == nil {
			err = plan.ScanLocal(scan, dev.DB, func(storage.Row) error { scanned++; return nil })
		}
		noErr(t, err)
		f.eng.aim(phase, slot)
		slot = (slot + 1) % f.eng.FleetSize()
	}
	for want := range f.eng.FleetSize() { // the warm-up checks what each wake loads
		wakeScanNext()
		if dev.ID != slotID(want) || !bytes.Equal(storage.PackDB(dev.DB), storage.PackDB(f.dbs[want])) {
			t.Fatalf("slot %d woke as %s with database %x", want, dev.ID, storage.PackDB(dev.DB))
		}
	}
	if got := testing.AllocsPerRun(100, wakeScanNext); got != 0 || scanned == 0 {
		t.Errorf("a warm wake, scan and re-aim allocates %v times over %d rows, want 0", got, scanned)
	}
}

// heapInUse forces a full collection and reports live heap bytes.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestPackedMemoryFootprint: an enrolled device costs at most 256 B of
// live heap — its packed database, its ID and a few bytes of enrollment
// state. Retaining the populate scratch databases, or a live device per
// slot, blows the budget. The 100k case (check.sh runs it under
// GOMEMLIMIT=2GiB) also collects once: every device must deposit, and the
// live heap must be back inside the budget afterwards, so a walk that
// keeps the devices it wakes, or their rows, fails here.
func TestPackedMemoryFootprint(t *testing.T) {
	const budget = 256 // bytes per device
	for _, tc := range []struct {
		name    string
		n       int
		collect bool
	}{
		{"packed", 2000, false},
		{"packed-100k", 100_000, true},
	} {
		if tc.collect && testing.Short() {
			continue
		}
		runtime.GC() // a sync.Pool keeps its spares one GC: none of earlier tests' in base
		base := heapInUse()
		eng := newTestEngine(t, tc.n, nil, nil)
		perDevice := func() int64 { return int64(heapInUse()-base) / int64(tc.n) }
		per := perDevice()
		t.Logf("%s: %d bytes/device", tc.name, per)
		if per <= 0 {
			t.Skip("heap delta too noisy to measure")
		}
		if per > budget {
			t.Errorf("%s fleet retains %d B/device, budget %d", tc.name, per, budget)
		}
		if tc.collect {
			resp, err := eng.Execute(context.Background(), Request{
				Querier: newQuerierForEngine(t, eng, "edf"), SQL: flagshipSQL,
				Kind: protocol.KindSAgg, CollectOnly: true,
			})
			noErr(t, err)
			if got := resp.Metrics.DepositedDevices; got != tc.n {
				t.Errorf("%s: %d of %d devices deposited", tc.name, got, tc.n)
			}
			after := perDevice() // resp is dead here: the trace and journal go too
			t.Logf("%s: %d bytes/device after one collection pass", tc.name, after)
			if after > budget {
				t.Errorf("%s fleet holds %d B/device after a collection pass, budget %d", tc.name, after, budget)
			}
		}
		runtime.KeepAlive(eng)
	}
}
