package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/trustedcells/tcq/internal/accessctl"
	"github.com/trustedcells/tcq/internal/obs"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/querier"
	"github.com/trustedcells/tcq/internal/rng"
	"github.com/trustedcells/tcq/internal/sqlexec"
	"github.com/trustedcells/tcq/internal/sqlparse"
	"github.com/trustedcells/tcq/internal/ssi"
	"github.com/trustedcells/tcq/internal/storage"
	"github.com/trustedcells/tcq/internal/tds"
	"github.com/trustedcells/tcq/internal/tdscrypto"
)

func newBenchEngine(b testing.TB, fleet, workers int) (*Engine, *querier.Querier) {
	b.Helper()
	schema := meterSchema()
	eng, err := NewEngine(Config{
		Schema: schema,
		Policy: &accessctl.Policy{Rules: []accessctl.Rule{
			{Role: "energy-analyst", AggregateOnly: true},
		}},
		AuthorityKey:      tdscrypto.DeriveKey(tdscrypto.Key{}, "authority"),
		MasterKey:         tdscrypto.DeriveKey(tdscrypto.Key{}, "master"),
		AvailableFraction: 0.5,
		CollectWorkers:    workers,
		Seed:              7,
	})
	if err != nil {
		b.Fatal(err)
	}
	err = eng.ProvisionFleet(fleet, func(i int) *storage.LocalDB {
		return householdDB(schema, i)
	})
	if err != nil {
		b.Fatal(err)
	}
	cred := eng.Authority().Issue("edf", []string{"energy-analyst"},
		time.Unix(1700000000, 0).Add(365*24*time.Hour))
	q, err := querier.New("edf", eng.K1(), cred, schema)
	if err != nil {
		b.Fatal(err)
	}
	return eng, q
}

// benchCollectionPhase measures the collection phase alone — post a query,
// connect the whole fleet, deposit at the SSI — at a given worker count.
func benchCollectionPhase(b *testing.B, fleet, workers int) {
	eng, q := newBenchEngine(b, fleet, workers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post, err := q.BuildPost(eng.nextQueryID(), benchAggSQL, protocol.KindSAgg, protocol.Params{})
		if err != nil {
			b.Fatal(err)
		}
		run := rng.New(eng.cfg.Seed, post.ID, rng.Run)
		now := time.Unix(1700000000, 0)
		if err := eng.ssi.PostQuery(post, now); err != nil {
			b.Fatal(err)
		}
		var m Metrics
		rs := &runState{post: post, rng: run, metrics: &m, clock: obs.NewSimClock(now),
			ssi: eng.ssi, integ: &integrityState{}, crew: &crew{n: eng.collectWorkers()}}
		if err := eng.collectionPhase(context.Background(), rs, tds.CollectConfig{}); err != nil {
			b.Fatal(err)
		}
		if m.Nt == 0 {
			b.Fatal("nothing collected")
		}
		rs.crew.stop()
		eng.ssi.Drop(post.ID)
		eng.planCache.Drop(post.ID)
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
// (noise_tagged's shape: 49 tagged fakes per true tuple).
func BenchmarkCollectOneTDS(b *testing.B) {
	for _, kind := range []protocol.Kind{protocol.KindSAgg, protocol.KindCNoise} {
		b.Run(kind.String(), func(b *testing.B) {
			eng, q := newBenchEngine(b, 1, 1)
			post, err := q.BuildPost(eng.nextQueryID(), benchAggSQL, kind, protocol.Params{})
			if err != nil {
				b.Fatal(err)
			}
			var cfg tds.CollectConfig // the device's own group, then Paris-1 … Paris-49
			for g := 0; kind == protocol.KindCNoise && g < 50; g++ {
				cfg.Domain = append(cfg.Domain, storage.Row{storage.Str(strings.TrimSuffix(fmt.Sprint(districts[0], "-", g), "-0"))})
			}
			t := eng.fleet[0]
			now := time.Unix(1700000000, 0)
			col := newCollector()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tuples, _, err := eng.collectOne(col, t, post, cfg, now); err != nil || len(tuples) == 0 {
					b.Fatalf("%d tuples: %v", len(tuples), err)
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
		device := fmt.Sprintf("tds-%05d", d)
		rs.integ.records = append(rs.integ.records, depositRecord{
			device: device, attempt: 1, accepted: per, epoch: 1,
			commit: protocol.DepositCommitment(rs.verifier, rs.post.ID, device, 1, 1,
				store.tuples[d*per:(d+1)*per]),
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
					if err := eng.verifyCollection(rs); err != nil {
						b.Fatal(err)
					}
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
				store, input := ssi.New(), benchTuples(shape.deposits*shape.per, 50)
				must(store.PostQuery(&protocol.QueryPost{ID: "q", Kind: kind}, time.Unix(1700000000, 0)))
				for d := 0; d < shape.deposits; d++ {
					dep := protocol.NewDeposit("q", "", 0, 0, input[d*shape.per:(d+1)*shape.per])
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

// benchAggSQL is the repo benchmark's aggregate query.
const benchAggSQL = `SELECT C.district, AVG(P.cons) FROM Power P, Consumer C ` +
	`WHERE C.cid = P.cid GROUP BY C.district`

// newDevice is one device of the repo benchmark's shapes, with the S_Agg
// query posted: fleet device 0's consumer with 300 readings (deep_device)
// or 2 (wide_fleet).
func newDevice(tb testing.TB, readings int) (*Engine, *tds.TDS, *protocol.QueryPost) {
	eng, q := newBenchEngine(tb, 1, 1)
	t := eng.fleet[0]
	def, _ := t.DB.Schema().Table("Consumer")
	consumer := t.DB.TableRows(def)
	t.DB = storage.NewLocalDB(t.DB.Schema())
	must(t.DB.Insert("Consumer", consumer[0]))
	for p := 0; p < readings; p++ {
		must(t.DB.Insert("Power", storage.Row{storage.Int(0), storage.Float(50 + float64(p%40)), storage.Int(int64(p))}))
	}
	post, err := q.BuildPost(eng.nextQueryID(), benchAggSQL, protocol.KindSAgg, protocol.Params{})
	if err != nil {
		tb.Fatal(err)
	}
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
			plan, err := sqlexec.Compile(sqlparse.MustParse(benchAggSQL), t.DB.Schema())
			if err != nil {
				b.Fatal(err)
			}
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
// what leaves it and the payload scratch. Measured at 3 (8 before the scan
// read rows in place and the payload was sized once): the scratch, and the
// output growing to its 2 tuples. The slack is for pooled states a GC or
// the race detector drops.
func TestCollectOneAllocBudget(t *testing.T) {
	eng, dev, post := newDevice(t, 2)
	col, now := newCollector(), time.Unix(1700000000, 0)
	if got := testing.AllocsPerRun(100, func() {
		if _, _, err := eng.collectOne(col, dev, post, tds.CollectConfig{}, now); err != nil {
			t.Fatal(err)
		}
	}); got > 5 {
		t.Errorf("collectOne allocates %v times, budget 5", got)
	}
}

// BenchmarkAggregateFold measures one first-step aggregation unit of that
// shape: a TDS opening and folding a partition of 300 collection tuples,
// all of one group.
func BenchmarkAggregateFold(b *testing.B) {
	eng, t, post := newDevice(b, 300)
	partition, _, err := eng.collectOne(newCollector(), t, post, tds.CollectConfig{}, time.Unix(1700000000, 0))
	if err != nil || len(partition) != 300 {
		b.Fatalf("%d tuples, %v", len(partition), err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := t.Aggregate(post, partition, tds.EmitWhole); err != nil {
			b.Fatal(err)
		}
	}
}
