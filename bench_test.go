// Package tcq benchmarks regenerate every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index) and add ablation
// benches for the design choices of §5. Run:
//
//	go test -bench=. -benchmem
//
// Figure benches report the headline series value via b.ReportMetric so
// `go test -bench` output doubles as the experiment record; cmd/benchtool
// prints the full tables.
package tcq

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/trustedcells/tcq/internal/accessctl"
	"github.com/trustedcells/tcq/internal/core"
	"github.com/trustedcells/tcq/internal/costmodel"
	"github.com/trustedcells/tcq/internal/exposure"
	"github.com/trustedcells/tcq/internal/figures"
	"github.com/trustedcells/tcq/internal/netsim"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/querier"
	"github.com/trustedcells/tcq/internal/tdscrypto"
	"github.com/trustedcells/tcq/internal/workload"
)

// ---- Fig 7 / Fig 8: information exposure ----

func BenchmarkFig7ICTables(b *testing.B) {
	var eps float64
	for i := 0; i < b.N; i++ {
		rows := figures.Fig7()
		eps = rows[1].Epsilon
	}
	b.ReportMetric(eps, "Ԑ_Det")
}

func BenchmarkFig8Exposure(b *testing.B) {
	var floor float64
	for i := 0; i < b.N; i++ {
		rows := figures.Fig8(200, 20000, 7)
		floor = rows[len(rows)-1].Epsilon
	}
	b.ReportMetric(floor, "Ԑ_floor")
}

// ---- Fig 9b: unit test of the calibrated device ----

// BenchmarkFig9bUnitTest measures the real cryptographic work of one 4 KB
// partition (decrypt, then re-encrypt a 64-byte aggregate) and reports the
// calibrated board's simulated total next to it.
func BenchmarkFig9bUnitTest(b *testing.B) {
	cal := netsim.DefaultCalibration()
	suite, err := tdscrypto.NewSuite(tdscrypto.MustRandomKey())
	if err != nil {
		b.Fatal(err)
	}
	partition := make([]byte, cal.PartitionSize)
	ct, err := suite.NDetEncrypt(partition, nil)
	if err != nil {
		b.Fatal(err)
	}
	small := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt, err := suite.Decrypt(ct, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := suite.NDetEncrypt(small, nil); err != nil {
			b.Fatal(err)
		}
		_ = pt
	}
	b.StopTimer()
	bd := figures.Fig9b()
	b.ReportMetric(bd.Total().Seconds()*1e3, "board_ms/partition")
	b.ReportMetric(bd.Transfer.Seconds()*1e3, "board_transfer_ms")
}

// ---- Fig 10a-j: cost-model sweeps ----

// fig10Bench regenerates one panel per iteration and reports the S_Agg and
// ED_Hist values at the panel's default x (G = 10^3 or N_t = 5e6).
func fig10Bench(b *testing.B, panel string) {
	var f figures.Figure
	var err error
	for i := 0; i < b.N; i++ {
		f, err = figures.Fig10(panel)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range f.Series {
		if s.Name == costmodel.NameSAgg || s.Name == costmodel.NameEDHist {
			b.ReportMetric(s.Y[3%len(s.Y)], s.Name)
		}
	}
}

func BenchmarkFig10aPTDSvsG(b *testing.B)       { fig10Bench(b, "a") }
func BenchmarkFig10bPTDSvsNt(b *testing.B)      { fig10Bench(b, "b") }
func BenchmarkFig10cLoadQvsG(b *testing.B)      { fig10Bench(b, "c") }
func BenchmarkFig10dLoadQvsNt(b *testing.B)     { fig10Bench(b, "d") }
func BenchmarkFig10eTQvsG(b *testing.B)         { fig10Bench(b, "e") }
func BenchmarkFig10fTQvsNt(b *testing.B)        { fig10Bench(b, "f") }
func BenchmarkFig10gTlocalvsG(b *testing.B)     { fig10Bench(b, "g") }
func BenchmarkFig10hTlocalvsNt(b *testing.B)    { fig10Bench(b, "h") }
func BenchmarkFig10iTQvsGScarce(b *testing.B)   { fig10Bench(b, "i") }
func BenchmarkFig10jTQvsGAbundant(b *testing.B) { fig10Bench(b, "j") }

// ---- Fig 11: qualitative ranking ----

func BenchmarkFig11Ranking(b *testing.B) {
	var axes []figures.AxisRanking
	for i := 0; i < b.N; i++ {
		axes = figures.Fig11()
	}
	b.ReportMetric(float64(len(axes)), "axes")
}

// ---- End-to-end protocol runs over a live goroutine fleet ----

type benchFixture struct {
	eng *core.Engine
	q   *querier.Querier
}

// newBenchFixture provisions a smart-meter fleet behind an engine whose
// default config edit (nil for none) adjusts.
func newBenchFixture(b *testing.B, fleet int, edit func(*core.Config)) *benchFixture {
	b.Helper()
	w := workload.DefaultSmartMeter(9)
	w.Districts = 10
	cfg := core.Config{
		Schema: w.Schema(),
		Policy: &accessctl.Policy{Rules: []accessctl.Rule{
			{Role: "energy-analyst", AggregateOnly: true},
		}},
		AuthorityKey:      tdscrypto.DeriveKey(tdscrypto.Key{}, "auth"),
		MasterKey:         tdscrypto.DeriveKey(tdscrypto.Key{}, "master"),
		AvailableFraction: 0.5,
		Seed:              9,
	}
	if edit != nil {
		edit(&cfg)
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.ProvisionFleet(fleet, w.HouseholdDB); err != nil {
		b.Fatal(err)
	}
	cred := eng.Authority().Issue("edf", []string{"energy-analyst"},
		time.Unix(1700000000, 0).Add(24*time.Hour))
	q, err := querier.New("edf", eng.K1(), cred, eng.Schema())
	if err != nil {
		b.Fatal(err)
	}
	return &benchFixture{eng: eng, q: q}
}

// benchExec is the bench-side spelling of the plain Execute shape.
func benchExec(eng *core.Engine, q *querier.Querier, sql string,
	kind protocol.Kind, params protocol.Params) (*core.Response, error) {
	return eng.Execute(context.Background(), core.Request{
		Querier: q, SQL: sql, Kind: kind, Params: params})
}

const benchSQL = `SELECT C.district, AVG(P.cons) FROM Power P, Consumer C ` +
	`WHERE C.cid = P.cid GROUP BY C.district`

func benchEndToEnd(b *testing.B, kind protocol.Kind, params protocol.Params) {
	f := newBenchFixture(b, 60, nil)
	// Warm the discovery cache so tagged protocols measure the query, not
	// the one-time discovery.
	if _, err := benchExec(f.eng, f.q, benchSQL, protocol.KindSAgg, protocol.Params{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var tq time.Duration
	for i := 0; i < b.N; i++ {
		resp, err := benchExec(f.eng, f.q, benchSQL, kind, params)
		if err != nil {
			b.Fatal(err)
		}
		if len(resp.Result.Rows) == 0 {
			b.Fatal("empty result")
		}
		tq = resp.Metrics.TQ
	}
	b.ReportMetric(tq.Seconds()*1e3, "simulated_TQ_ms")
}

func BenchmarkEndToEndSAgg(b *testing.B) {
	benchEndToEnd(b, protocol.KindSAgg, protocol.Params{})
}

func BenchmarkEndToEndRnfNoise(b *testing.B) {
	benchEndToEnd(b, protocol.KindRnfNoise, protocol.Params{Nf: 2})
}

func BenchmarkEndToEndCNoise(b *testing.B) {
	benchEndToEnd(b, protocol.KindCNoise, protocol.Params{})
}

func BenchmarkEndToEndEDHist(b *testing.B) {
	benchEndToEnd(b, protocol.KindEDHist, protocol.Params{})
}

func BenchmarkEndToEndBasicSFW(b *testing.B) {
	f := newBenchFixture(b, 60, nil)
	sql := `SELECT C.cid, C.district FROM Consumer C WHERE C.accommodation = 'flat'`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := benchExec(f.eng, f.q, sql, protocol.KindBasic, protocol.Params{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablations (DESIGN.md §5) ----

// BenchmarkAblationAlphaSweep sweeps the S_Agg reduction factor around
// α_op = 3.6 in the cost model: T_Q must be minimal near the optimum.
func BenchmarkAblationAlphaSweep(b *testing.B) {
	for _, alpha := range []float64{2, 3, 3.6, 4.5, 6} {
		b.Run(fmt.Sprintf("alpha=%.1f", alpha), func(b *testing.B) {
			var m costmodel.Metrics
			for i := 0; i < b.N; i++ {
				m = costmodel.SAgg(costmodel.Params{Alpha: alpha})
			}
			b.ReportMetric(m.TQ.Seconds(), "TQ_s")
		})
	}
}

// BenchmarkAblationNoiseSweep sweeps n_f: exposure falls, load rises.
func BenchmarkAblationNoiseSweep(b *testing.B) {
	d := exposure.Distribution(workload.ZipfCounts(200, 20000, 1.3, 5))
	for _, nf := range []int{0, 2, 10, 100, 1000} {
		b.Run(fmt.Sprintf("nf=%d", nf), func(b *testing.B) {
			var eps float64
			for i := 0; i < b.N; i++ {
				eps = exposure.RnfNoise(d, nf, 5)
			}
			load := costmodel.RnfNoise(costmodel.Params{Nf: float64(nf)}).LoadQ
			b.ReportMetric(eps, "Ԑ")
			b.ReportMetric(load/1e6, "LoadQ_MB")
		})
	}
}

// BenchmarkAblationCollisionSweep sweeps the ED_Hist collision factor h:
// responsiveness degrades as h grows while exposure shrinks.
func BenchmarkAblationCollisionSweep(b *testing.B) {
	for _, h := range []float64{1, 2, 5, 20, 100} {
		b.Run(fmt.Sprintf("h=%g", h), func(b *testing.B) {
			var m costmodel.Metrics
			for i := 0; i < b.N; i++ {
				m = costmodel.EDHist(costmodel.Params{H: h})
			}
			b.ReportMetric(m.TQ.Seconds()*1e3, "TQ_ms")
		})
	}
}

// BenchmarkAblationEncModes compares the throughput of the two encryption
// schemes on wire-sized tuples: Det_Enc pays an extra HMAC per tuple.
func BenchmarkAblationEncModes(b *testing.B) {
	suite, err := tdscrypto.NewSuite(tdscrypto.MustRandomKey())
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 16)
	b.Run("nDet_Enc", func(b *testing.B) {
		b.SetBytes(16)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := suite.NDetEncrypt(msg, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Det_Enc", func(b *testing.B) {
		b.SetBytes(16)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := suite.DetEncrypt(msg, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationPartitionSize sweeps the streaming unit around the
// paper's 4 KB: the simulated per-partition breakdown stays
// transfer-dominated at every size.
func BenchmarkAblationPartitionSize(b *testing.B) {
	cal := netsim.DefaultCalibration()
	for _, size := range []int{1 << 10, 4 << 10, 16 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("size=%dKB", size>>10), func(b *testing.B) {
			var bd netsim.Breakdown
			for i := 0; i < b.N; i++ {
				bd = cal.PartitionBreakdown(size, 64)
			}
			b.ReportMetric(bd.Total().Seconds()*1e3, "board_ms")
			b.ReportMetric(bd.Transfer.Seconds()/bd.Total().Seconds(), "transfer_share")
		})
	}
}

// BenchmarkAblationAuditReplicas sweeps the compromised-TDS audit factor:
// correctness insurance priced in P_TDS and Load_Q (collection excluded).
func BenchmarkAblationAuditReplicas(b *testing.B) {
	for _, r := range []int{1, 3, 5} {
		b.Run(fmt.Sprintf("replicas=%d", r), func(b *testing.B) {
			var fc costmodel.FullCost
			var err error
			for i := 0; i < b.N; i++ {
				fc, err = costmodel.Full(costmodel.NameSAgg, costmodel.Params{}, r)
				if err != nil {
					b.Fatal(err)
				}
			}
			t := fc.Total()
			b.ReportMetric(t.PTDS, "P_TDS")
			b.ReportMetric(t.LoadQ/1e6, "LoadQ_MB")
		})
	}
}

// BenchmarkEndToEndAudited runs the live audited protocol: three replicas
// per partition over a 20%-compromised fleet, still exact.
func BenchmarkEndToEndAudited(b *testing.B) {
	f := newBenchFixture(b, 60, func(c *core.Config) {
		c.AuditReplicas, c.CompromisedFraction = 3, 0.2
	})
	eng, q := f.eng, f.q
	b.ResetTimer()
	var detections int
	for i := 0; i < b.N; i++ {
		resp, err := benchExec(eng, q, benchSQL, protocol.KindSAgg, protocol.Params{})
		if err != nil {
			b.Fatal(err)
		}
		detections = resp.Metrics.AuditDetections
	}
	b.ReportMetric(float64(detections), "detections")
}

// BenchmarkBroadcastRevocation measures key distribution to a 1024-device
// fleet with 16 revoked devices (NNL complete subtree).
func BenchmarkBroadcastRevocation(b *testing.B) {
	auth, err := tdscrypto.NewBroadcastAuthority(tdscrypto.DeriveKey(tdscrypto.Key{}, "bc"), 1024)
	if err != nil {
		b.Fatal(err)
	}
	for s := 0; s < 16; s++ {
		if err := auth.Revoke(s * 64); err != nil {
			b.Fatal(err)
		}
	}
	ring := tdscrypto.NewKeyAuthority(tdscrypto.DeriveKey(tdscrypto.Key{}, "m")).Ring()
	dk, err := auth.DeviceKeys(33)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var entries int
	for i := 0; i < b.N; i++ {
		msg, err := auth.BroadcastRing(ring)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dk.OpenRing(msg); err != nil {
			b.Fatal(err)
		}
		entries = len(msg.Entries)
	}
	b.ReportMetric(float64(entries), "cover_entries")
}

// ---- Fleet-scale memory model (DESIGN.md §10) ----

// BenchmarkProvisionFleetPacked measures fleet enrollment and reports how
// much live heap one enrolled device costs. The budget on the same figure
// is core's TestPackedMemoryFootprint (100k devices).
func BenchmarkProvisionFleetPacked(b *testing.B) {
	const fleet = 10_000
	w := workload.DefaultSmartMeter(9)
	w.Districts = 10
	var eng *core.Engine
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		eng, err = core.NewEngine(core.Config{
			Schema: w.Schema(),
			Policy: &accessctl.Policy{Rules: []accessctl.Rule{
				{Role: "energy-analyst", AggregateOnly: true},
			}},
			AuthorityKey: tdscrypto.DeriveKey(tdscrypto.Key{}, "auth"),
			MasterKey:    tdscrypto.DeriveKey(tdscrypto.Key{}, "master"),
			Seed:         9,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.ProvisionFleet(fleet, w.HouseholdDB); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// One fleet (the last) is still live; everything else is garbage.
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if retained := int64(after.HeapAlloc) - int64(before.HeapAlloc); retained > 0 {
		b.ReportMetric(float64(retained)/fleet, "bytes/device")
	}
	runtime.KeepAlive(eng)
}

// BenchmarkPackedCollection runs one full collection walk over a
// 20k-device fleet: each device wakes into a window slot's device,
// deposits through the worker arenas and the window slots, and is left
// for the next.
func BenchmarkPackedCollection(b *testing.B) {
	f := newBenchFixture(b, 20_000, func(c *core.Config) { c.CollectWorkers = 1 })
	eng, q := f.eng, f.q
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Execute(ctx, core.Request{
			Querier: q, SQL: benchSQL, Kind: protocol.KindSAgg,
			CollectOnly: true, SkipVerify: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCryptoPartition4KB is the raw software analogue of the board's
// crypto co-processor cost on one 4 KB partition.
func BenchmarkCryptoPartition4KB(b *testing.B) {
	suite, err := tdscrypto.NewSuite(tdscrypto.MustRandomKey())
	if err != nil {
		b.Fatal(err)
	}
	ct, err := suite.NDetEncrypt(make([]byte, 4096), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := suite.Decrypt(ct, nil); err != nil {
			b.Fatal(err)
		}
	}
}
