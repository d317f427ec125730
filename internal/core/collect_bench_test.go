package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/trustedcells/tcq/internal/accessctl"
	"github.com/trustedcells/tcq/internal/obs"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/querier"
	"github.com/trustedcells/tcq/internal/storage"
	"github.com/trustedcells/tcq/internal/tds"
	"github.com/trustedcells/tcq/internal/tdscrypto"
)

func newBenchEngine(b *testing.B, fleet, workers int) (*Engine, *querier.Querier) {
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
	sql := `SELECT C.district, AVG(P.cons) FROM Power P, Consumer C ` +
		`WHERE C.cid = P.cid GROUP BY C.district`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post, err := q.BuildPost(eng.nextQueryID(), sql, protocol.KindSAgg, protocol.Params{})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(eng.cfg.Seed ^ int64(hashString(post.ID))))
		now := time.Unix(1700000000, 0)
		if err := eng.ssi.PostQuery(post, now); err != nil {
			b.Fatal(err)
		}
		var m Metrics
		rs := &runState{post: post, rng: rng, metrics: &m, clock: obs.NewSimClock(now),
			ssi: eng.ssi, integ: &integrityState{}}
		if err := eng.collectionPhase(context.Background(), rs, tds.CollectConfig{}); err != nil {
			b.Fatal(err)
		}
		if m.Nt == 0 {
			b.Fatal("nothing collected")
		}
		eng.ssi.Drop(post.ID)
		eng.dropPlans(post.ID)
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
// encoding and tuple encryption.
func BenchmarkCollectOneTDS(b *testing.B) {
	eng, q := newBenchEngine(b, 1, 1)
	sql := `SELECT C.district, AVG(P.cons) FROM Power P, Consumer C ` +
		`WHERE C.cid = P.cid GROUP BY C.district`
	post, err := q.BuildPost(eng.nextQueryID(), sql, protocol.KindSAgg, protocol.Params{})
	if err != nil {
		b.Fatal(err)
	}
	t := eng.fleet[0]
	now := time.Unix(1700000000, 0)
	col := newCollector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tuples, _, err := eng.collectOne(col, t, post, tds.CollectConfig{}, now)
		if err != nil {
			b.Fatal(err)
		}
		if len(tuples) == 0 {
			b.Fatal("no tuples")
		}
	}
}
