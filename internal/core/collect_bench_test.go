package core

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/trustedcells/tcq/internal/obs"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/querier"
	"github.com/trustedcells/tcq/internal/rng"
	"github.com/trustedcells/tcq/internal/ssi"
	"github.com/trustedcells/tcq/internal/storage"
	"github.com/trustedcells/tcq/internal/tds"
	"github.com/trustedcells/tcq/internal/tdscrypto"
)

func newBenchEngine(b testing.TB, fleet, workers int) (*Engine, *querier.Querier) {
	b.Helper()
	eng := newTestEngine(b, fleet, func(c *Config) { c.CollectWorkers = workers }, nil)
	return eng, newQuerierForEngine(b, eng, "edf")
}

// newCollectionRun posts an S_Agg query and readies its run as far as
// the collection phase.
func newCollectionRun(tb testing.TB, eng *Engine, q *querier.Querier) *runState {
	post, err := q.BuildPost(eng.nextQueryID(), benchAggSQL, protocol.KindSAgg, protocol.Params{})
	noErr(tb, err)
	post.Epoch = eng.enterEpoch()
	now := time.Unix(1700000000, 0)
	noErr(tb, eng.ssi.PostQuery(post, now))
	return &runState{post: post, rng: rng.New(eng.cfg.Seed, post.ID, rng.Run), metrics: &Metrics{},
		clock: obs.NewSimClock(now), ssi: eng.ssi, integ: &integrityState{}, crew: &crew{n: eng.collectWorkers()}}
}

// benchCollectionPhase measures the collection phase alone — post a query,
// connect the whole fleet, deposit at the SSI — at a given worker count.
func benchCollectionPhase(b *testing.B, fleet, workers int) {
	eng, q := newBenchEngine(b, fleet, workers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := newCollectionRun(b, eng, q)
		if err := eng.collectionPhase(context.Background(), rs, tds.CollectConfig{}); err != nil || rs.metrics.Nt == 0 {
			b.Fatalf("%d tuples collected: %v", rs.metrics.Nt, err)
		}
		rs.crew.stop()
		eng.ssi.Drop(rs.post.ID)
		eng.planCache.Drop(rs.post.ID)
		eng.release(rs)
	}
}

// TestCollectSlotDoesNotAllocate: a worker's whole step for a window slot
// — wake the device, collect under S_Agg, seal the deposit — allocates
// nothing once warm: the scan state and the payload buffer are the
// worker's, the tuple buffer and the MAC the slot's, and the admission the
// device's memo. A single step is measured twenty times and the least
// kept, as a pooled MAC state the race detector dropped is rebuilt.
func TestCollectSlotDoesNotAllocate(t *testing.T) {
	eng, q := newBenchEngine(t, 8, 1)
	rs := newCollectionRun(t, eng, q)
	devices := make([]collectDevice, eng.FleetSize())
	for i := range devices {
		devices[i] = collectDevice{slot: i, id: slotID(i)}
	}
	w := eng.newCollectWalk(rs, tds.CollectConfig{}, devices)
	p := 0
	step := func() {
		w.collectSlot(w.cols[0], p)
		if r := w.slot(p); r.err != nil || !r.sealed || len(r.tuples) == 0 {
			t.Fatalf("slot %d: %d tuples, sealed %v: %v", p, len(r.tuples), r.sealed, r.err)
		}
		p = (p + 1) % len(devices)
	}
	least := math.Inf(1)
	for try := 0; try < 20; try++ {
		least = min(least, testing.AllocsPerRun(1, step))
	}
	if least != 0 {
		t.Errorf("a warm slot's wake, collect and seal allocates %v times, want 0", least)
	}
}

// TestExecuteAllocsPerDevice: what an S_Agg query allocates does not grow
// with the fleet: over 2000 two-reading devices it allocates less than
// 0.03 of an allocation per device more than over 200 (it reads 0.013; 0.075
// while each committed run made its outcome slice, about 2 before a
// device's step ran in its worker's scratch). The query folds in one
// partition, so the aggregation costs the same at both sizes. The race
// detector drops pooled MAC states, which a device rebuilds.
func TestExecuteAllocsPerDevice(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts under the race detector include dropped pooled states")
	}
	allocs := func(n int) float64 {
		eng := newTestEngine(t, 0, nil, nil)
		must(eng.ProvisionFleet(n, func(i int) *storage.LocalDB {
			db := storage.NewLocalDB(eng.Schema())
			must(db.Insert("Consumer", storage.Row{storage.Int(int64(i)), storage.Str(districts[i%len(districts)]), storage.Str("flat")}))
			for p := 0; p < 2; p++ {
				must(db.Insert("Power", storage.Row{storage.Int(int64(i)), storage.Float(50 + float64(p)), storage.Int(int64(p))}))
			}
			return db
		}))
		q := newQuerierForEngine(t, eng, "edf")
		return testing.AllocsPerRun(3, func() {
			if _, _, err := runQuery(eng, q, benchAggSQL, protocol.KindSAgg, protocol.Params{Alpha: 1000, PartitionTuples: 5000}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(200), allocs(2000); (large-small)/1800 >= 0.03 {
		t.Errorf("an S_Agg query allocates %v times over 200 devices and %v over 2000: %.3f per device, want < 0.03",
			small, large, (large-small)/1800)
	}
}

// BenchmarkCollectionPhase sweeps the worker count over a 10^3-TDS fleet
// (plus a smaller fleet for scaling context): one worker, two, and one
// per CPU of the box. Every setting runs the same walk with identical
// results; wall-clock gains require real cores.
func BenchmarkCollectionPhase(b *testing.B) {
	counts := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		counts = append(counts, n)
	}
	for _, fleet := range []int{100, 1000} {
		for _, workers := range counts {
			b.Run(fmt.Sprintf("fleet=%d/workers=%d", fleet, workers), func(b *testing.B) {
				benchCollectionPhase(b, fleet, workers)
			})
		}
	}
}

// BenchmarkCollectOneTDS isolates a single device's collection step — the
// hot path of the phase: plan lookup, policy check, local execution, row
// encoding and tuple encryption — for S_Agg, and for C_Noise at G = 50
// (noise_tagged's shape: 49 tagged fakes per true tuple). Its first timed
// step must emit, tag for tag and plaintext for plaintext, what a step
// before it did in the same worker's scratch.
func BenchmarkCollectOneTDS(b *testing.B) {
	for _, kind := range []protocol.Kind{protocol.KindSAgg, protocol.KindCNoise} {
		b.Run(kind.String(), func(b *testing.B) {
			eng, q := newBenchEngine(b, 1, 1)
			post, err := q.BuildPost(eng.nextQueryID(), benchAggSQL, kind, protocol.Params{})
			noErr(b, err)
			var cfg tds.CollectConfig // the device's own group, then Paris-1 … Paris-49
			for g := 0; kind == protocol.KindCNoise && g < 50; g++ {
				cfg.Domain = append(cfg.Domain, storage.Row{storage.Str(strings.TrimSuffix(fmt.Sprint(districts[0], "-", g), "-0"))})
			}
			t, now, col := wokenDevice(b, eng, 0), time.Unix(1700000000, 0), newCollector()
			step := func() (opened string) {
				tuples, _, err := eng.collectOne(col, t, post, cfg, now)
				for _, w := range tuples {
					pt, derr := eng.mats[0].K2.Decrypt(w.Ciphertext, post.AAD())
					opened, err = opened+fmt.Sprintf("%x|%x\n", w.Tag, pt), cmp.Or(err, derr)
				}
				if err != nil || len(tuples) == 0 {
					b.Fatalf("%d tuples: %v", len(tuples), err)
				}
				return opened
			}
			want := step()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tuples, _, err := eng.collectOne(col, t, post, cfg, now); err != nil || len(tuples) == 0 {
					b.Fatalf("%d tuples: %v", len(tuples), err)
				} else if i == 0 && step() != want {
					b.Fatal("a step in the worker's reused scratch emitted other tuples than the step before it")
				}
			}
		})
	}
}

// verifyStore is the part of ssi.Service the verifier reads, over a fixed
// tuple sequence; any other call hits the nil embedded interface.
type verifyStore struct {
	ssi.Service
	tuples []protocol.WireTuple
	// tamper is the stored position whose ciphertext reads back with a bit
	// flipped; negative for an honest store.
	tamper int
}

func (s *verifyStore) CollectedCount(string) int { return len(s.tuples) }

func (s *verifyStore) CollectedRange(_ string, start, end int) []protocol.WireTuple {
	out := append([]protocol.WireTuple(nil), s.tuples[start:end]...)
	if i := s.tamper - start; s.tamper >= 0 && i >= 0 && i < len(out) {
		ct := append([]byte(nil), out[i].Ciphertext...)
		ct[len(ct)-1] ^= 1
		out[i].Ciphertext = ct
	}
	return out
}

func (s *verifyStore) LedgerFor(string) []ssi.LedgerEntry { return nil }
func (s *verifyStore) Record(string, ssi.LedgerEntry)     {}

// newVerifyRun stands up what verification needs of a run, without one:
// a store of deposits × per tuples and the deposit records whose
// commitments the devices would have sealed over them.
func newVerifyRun(tb testing.TB, eng *Engine, deposits, per int) (*runState, *verifyStore) {
	store := &verifyStore{tuples: benchTuples(deposits*per, 50), tamper: -1}
	rs := &runState{
		post: &protocol.QueryPost{ID: "q-verify", Epoch: 1}, metrics: &Metrics{},
		clock: obs.NewSimClock(obs.SimOrigin()), ssi: store, verify: true,
		integ: &integrityState{}, verifier: eng.committerFor(1),
		crew: &crew{n: eng.collectWorkers()},
	}
	tb.Cleanup(rs.crew.stop)
	for d := 0; d < deposits; d++ {
		device, tuples := fmt.Sprintf("tds-%05d", d), store.tuples[d*per:(d+1)*per]
		rs.integ.records = append(rs.integ.records, depositRecord{
			device: device, attempt: 1, accepted: per, epoch: 1, bytes: protocol.TotalSize(tuples),
			commit: [tdscrypto.CommitSize]byte(protocol.DepositCommitment(rs.verifier, rs.post.ID, device, 1, 1, tuples)),
		})
	}
	return rs, store
}

// verifyWorkerCounts is the sweep of the verification benchmarks: the
// inline loop, and the fan-out over every CPU of the box.
func verifyWorkerCounts() []int {
	if n := runtime.NumCPU(); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// BenchmarkVerifyCollection measures the collection verifier alone over
// the two shapes the repo benchmark's integrity-heavy workloads deposit:
// many mid-sized deposits (noise_tagged) and few large ones (deep_device).
func BenchmarkVerifyCollection(b *testing.B) {
	for _, shape := range []struct{ deposits, per int }{{480, 50}, {100, 300}} {
		for _, workers := range verifyWorkerCounts() {
			b.Run(fmt.Sprintf("deposits=%dx%d/workers=%d", shape.deposits, shape.per, workers), func(b *testing.B) {
				eng, _ := newBenchEngine(b, 1, workers)
				rs, _ := newVerifyRun(b, eng, shape.deposits, shape.per)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					noErr(b, eng.verifyCollection(rs))
				}
			})
		}
	}
}

// BenchmarkVerifyBuild measures what one partition build costs to verify
// — the check and the digest fold — over 24 000 tuples deposited 300 at a
// time, built the two ways the protocols build the covering result:
// deposit-order windows (Basic, S_Agg's first step: an identity walk) and
// per-tag chunks of a shuffled input (the noise protocols: a position
// check that visits the views in no order at all); and the latter again
// as relayed partials, whose multiset check runs and whose partition
// leaves MAC their bytes.
func BenchmarkVerifyBuild(b *testing.B) {
	input := benchTuples(24000, 50)
	var views, windows [][]protocol.WireTuple
	for off := 0; off < len(input); off += 200 {
		windows = append(windows, input[off:off+200])
	}
	for off := 0; off < len(input); off += 300 {
		views = append(views, input[off:off+300])
	}
	byTag := make(map[string][]protocol.WireTuple)
	for _, w := range shuffledParts(input, len(input), rand.New(rand.NewSource(3)))[0] {
		byTag[string(w.Tag)] = append(byTag[string(w.Tag)], w)
	}
	var tagged [][]protocol.WireTuple
	for i := 0; i < 50; i++ {
		ws := byTag[string(input[i].Tag)]
		for off := 0; off < len(ws); off += 64 {
			tagged = append(tagged, ws[off:min(off+64, len(ws))])
		}
	}
	pos := positionsOf(input, tagged)
	for _, shape := range []struct {
		name     string
		parts    [][]protocol.WireTuple
		covering bool
	}{{"deposit-order", windows, true}, {"by-tag-shuffled", tagged, true}, {"relayed", tagged, false}} {
		b.Run(shape.name, func(b *testing.B) {
			eng, _ := newBenchEngine(b, 1, 1)
			rs, _ := newVerifyRun(b, eng, 0, 0)
			rs.integ.views = views
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !rs.foldBuild("bench", shape.covering, input, shape.parts, pos) {
					b.Fatal("honest build rejected")
				}
			}
		})
	}
}

// ssiShapes are the collections the repo benchmark's ssi-heavy workloads
// leave in the store: 480 deposits of 50 tuples (noise_tagged) and 100 of
// 300 (deep_device), over 50 tags.
var ssiShapes = []struct{ deposits, per int }{{480, 50}, {100, 300}}

// BenchmarkStreamBuild times the first-step build over a stored
// collection, stash included: deposit-order windows for an S_Agg post
// (views; the few that straddle a chunk boundary are copied), and for a
// tagged one the per-tag grouping read in place, 64 tuples to a
// partition, with its store positions.
func BenchmarkStreamBuild(b *testing.B) {
	for _, shape := range ssiShapes {
		for _, kind := range []protocol.Kind{protocol.KindSAgg, protocol.KindCNoise} {
			name := fmt.Sprintf("deposits=%dx%d", shape.deposits, shape.per)
			if kind == protocol.KindCNoise {
				name = "tagged/" + name
			}
			b.Run(name, func(b *testing.B) {
				store, input := ssi.NewSharded(1), benchTuples(shape.deposits*shape.per, 50)
				must(store.PostQuery(&protocol.QueryPost{ID: "q", Kind: kind}, time.Unix(1700000000, 0)))
				for d := 0; d < shape.deposits; d++ {
					dep := protocol.NewDeposit("q", slotID(d), 0, 0, input[d*shape.per:(d+1)*shape.per])
					if _, _, err := store.DepositEnvelope("q", dep, time.Unix(1700000000, 0)); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if parts, _ := store.StreamBuild("q", 64); len(parts) < (len(input)+63)/64 {
						b.Fatalf("%d partitions", len(parts))
					}
				}
			})
		}
	}
}

// wokenDevice wakes a fleet slot, rows and all, into a device of its own,
// as a collection walk's window slot does.
func wokenDevice(tb testing.TB, eng *Engine, slot int) *tds.TDS {
	t := eng.newShell()
	noErr(tb, eng.wake(t, slot))
	return t
}

// benchAggSQL is the repo benchmark's aggregate query.
const benchAggSQL = `SELECT C.district, AVG(P.cons) FROM Power P, Consumer C ` +
	`WHERE C.cid = P.cid GROUP BY C.district`

// newDevice is one device of the repo benchmark's shapes, with the S_Agg
// query posted: fleet device 0's consumer with 300 readings (deep_device)
// or 2 (wide_fleet).
func newDevice(tb testing.TB, readings int) (*Engine, *tds.TDS, *protocol.QueryPost) {
	eng, q := newBenchEngine(tb, 1, 1)
	t := wokenDevice(tb, eng, 0)
	def, _ := t.DB.Schema().Table("Consumer")
	consumer := t.DB.TableRows(nil, def)[0]
	t.DB = storage.NewLocalDB(t.DB.Schema())
	must(t.DB.Insert("Consumer", consumer[0]))
	for p := 0; p < readings; p++ {
		must(t.DB.Insert("Power", storage.Row{storage.Int(0), storage.Float(50 + float64(p%40)), storage.Int(int64(p))}))
	}
	post, err := q.BuildPost(eng.nextQueryID(), benchAggSQL, protocol.KindSAgg, protocol.Params{})
	noErr(tb, err)
	return eng, t, post
}

// BenchmarkCollectLocal isolates the plaintext half of a device's
// collection step — scan, join, WHERE, collection tuples — which is where
// the compiled evaluator and the in-place scan apply, on both shapes.
func BenchmarkCollectLocal(b *testing.B) {
	for _, shape := range []struct {
		name     string
		readings int
	}{{"deep", 300}, {"wide", 2}} {
		b.Run(shape.name, func(b *testing.B) {
			_, t, _ := newDevice(b, shape.readings)
			plan := compilePlan(b, benchAggSQL, t.DB.Schema())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rows, err := plan.CollectLocal(t.DB); err != nil || len(rows) != shape.readings {
					b.Fatalf("%d rows, %v", len(rows), err)
				}
			}
		})
	}
}

// TestCollectOneAllocBudget: one device's S_Agg collection step allocates
// only what leaves it, the output growing to its 2 tuples (8 before the
// scan read rows in place, 3 before the payload buffer was the worker's).
// The least of twenty runs is kept: the race detector drops pooled states.
func TestCollectOneAllocBudget(t *testing.T) {
	eng, dev, post := newDevice(t, 2)
	col, now, least := newCollector(), time.Unix(1700000000, 0), math.Inf(1)
	for try := 0; try < 20; try++ {
		least = min(least, testing.AllocsPerRun(1, func() {
			if _, _, err := eng.collectOne(col, dev, post, tds.CollectConfig{}, now); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if least > 2 {
		t.Errorf("collectOne allocates %v times, budget 2", least)
	}
}

// BenchmarkAggregateFold measures one first-step aggregation unit of that
// shape: a TDS opening and folding a partition of 300 collection tuples,
// all of one group, in the scratch its earlier folds left. Every fold must
// emit what the first did, so a scratch that carries state from one fold
// into the next fails even a one-iteration run.
func BenchmarkAggregateFold(b *testing.B) {
	eng, t, post := newDevice(b, 300)
	partition, _, err := eng.collectOne(newCollector(), t, post, tds.CollectConfig{}, time.Unix(1700000000, 0))
	if err != nil || len(partition) != 300 {
		b.Fatalf("%d tuples, %v", len(partition), err)
	}
	var pt []byte // the output's plaintext, then its digest
	fold := func() []byte {
		out, err := t.Aggregate(post, partition, tds.EmitWhole)
		if err == nil && len(out) == 1 {
			pt, err = eng.mats[0].K2.DecryptTo(pt[:0], out[0].Ciphertext, post.AAD())
		}
		if err != nil || len(out) != 1 {
			b.Fatalf("%d tuples, %v", len(out), err)
		}
		pt = append(pt, out[0].Digest...)
		return pt
	}
	want := bytes.Clone(fold())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := fold(); !bytes.Equal(got, want) {
			b.Fatalf("fold %d emitted %x, the first %x", i+2, got, want)
		}
	}
}
