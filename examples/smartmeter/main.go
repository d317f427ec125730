// Smartmeter reproduces the paper's motivating scenario (Section 2.3): an
// energy distribution company computes the mean consumption of detached
// houses per district over a fleet of Linky-like secure meters, under
// every aggregation protocol, and compares their costs — always-connected
// meters make S_Agg the natural choice (Section 6.4).
//
//	go run ./examples/smartmeter
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/trustedcells/tcq/internal/accessctl"
	"github.com/trustedcells/tcq/internal/core"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/querier"
	"github.com/trustedcells/tcq/internal/storage"
	"github.com/trustedcells/tcq/internal/tdscrypto"
	"github.com/trustedcells/tcq/internal/workload"
)

// The flagship query of Section 2.3 (SIZE bounds the poll).
const flagship = `SELECT C.district, AVG(Cons) FROM Power P, Consumer C ` +
	`WHERE C.accommodation = 'detached house' AND C.cid = P.cid ` +
	`GROUP BY C.district HAVING COUNT(DISTINCT C.cid) > 3 SIZE 5000`

// The load profile of three districts: every aggregate of the dialect
// besides AVG, from the distributive SUM / MIN / MAX through the algebraic
// VARIANCE / STDDEV to the holistic MEDIAN and COUNT DISTINCT.
const profile = `SELECT C.district, COUNT(DISTINCT C.cid) AS meters, SUM(P.cons) AS total, ` +
	`MIN(P.cons) AS low, MAX(P.cons) AS peak, MEDIAN(P.cons) AS med, ` +
	`VARIANCE(P.cons) AS var, STDDEV(P.cons) AS sd FROM Power P, Consumer C ` +
	`WHERE C.cid = P.cid AND C.district IN ('district-000', 'district-001', 'district-002') ` +
	`GROUP BY C.district SIZE 5000`

func main() {
	w := workload.DefaultSmartMeter(7)
	w.Districts = 12

	eng, err := core.NewEngine(core.Config{
		Schema: w.Schema(),
		Policy: &accessctl.Policy{Rules: []accessctl.Rule{
			{Role: "energy-analyst", AggregateOnly: true},
		}},
		AuthorityKey: tdscrypto.MustRandomKey(),
		MasterKey:    tdscrypto.MustRandomKey(),
		// Smart meters are connected all the time and mostly idle: the
		// whole fleet is available for aggregation work.
		AvailableFraction: 1.0,
		Seed:              7,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.ProvisionFleet(400, w.HouseholdDB); err != nil {
		log.Fatal(err)
	}
	cred := eng.Authority().Issue("edf", []string{"energy-analyst"},
		time.Unix(1700000000, 0).Add(24*time.Hour))
	q, err := querier.New("edf", eng.K1(), cred, eng.Schema())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("query:", flagship)
	fmt.Println()

	runs := []struct {
		kind   protocol.Kind
		params protocol.Params
	}{
		{protocol.KindSAgg, protocol.Params{}},
		{protocol.KindRnfNoise, protocol.Params{Nf: 2}},
		{protocol.KindCNoise, protocol.Params{}},
		{protocol.KindEDHist, protocol.Params{}},
	}
	fmt.Printf("%-10s %8s %8s %10s %12s %12s %6s\n",
		"protocol", "N_t", "P_TDS", "Load_Q", "T_Q", "T_local", "rows")
	var firstRows string
	for _, r := range runs {
		resp, err := eng.Execute(context.Background(), core.Request{
			Querier: q, SQL: flagship, Kind: r.kind, Params: r.params,
		})
		if err != nil {
			log.Fatalf("%v run failed: %v", r.kind, err)
		}
		res, m := resp.Result, resp.Metrics
		fmt.Printf("%-10v %8d %8d %9.0fKB %12v %12v %6d\n",
			r.kind, m.Nt, m.PTDS, float64(m.LoadBytes)/1e3,
			m.TQ.Round(time.Microsecond), m.TLocal.Round(time.Microsecond), len(res.Rows))
		if firstRows == "" {
			firstRows = res.String()
		}
	}

	fmt.Println("\nresult (identical under every protocol):")
	fmt.Println(firstRows)
	fmt.Println("note: noise protocols trade collection volume for parallel,")
	fmt.Println("per-group aggregation; S_Agg ships the least data but merges")
	fmt.Println("iteratively — the Section 6.4 trade-off, live.")

	resp, err := eng.Execute(context.Background(), core.Request{
		Querier: q, SQL: profile, Kind: protocol.KindSAgg,
	})
	if err != nil {
		log.Fatalf("profile run failed: %v", err)
	}
	fmt.Println("\nquery:", profile)
	fmt.Println()
	fmt.Print(resp.Result)

	// Section 2.3's continuous query: one complete run per window, each
	// over the data present at that point. Between two windows every meter
	// records one more reading.
	const readings = `SELECT COUNT(*) FROM Power`
	fmt.Println("\ncontinuous windows:", readings)
	for window := 0; window < 3; window++ {
		for i := 0; window > 0 && i < eng.FleetSize(); i++ {
			row := storage.Row{storage.Int(int64(i)), storage.Float(40), storage.Int(int64(w.Readings + window - 1))}
			if err := eng.Insert(fmt.Sprintf("tds-%05d", i), "Power", row); err != nil {
				log.Fatal(err)
			}
		}
		resp, err := eng.Execute(context.Background(), core.Request{Querier: q, SQL: readings, Kind: protocol.KindSAgg})
		if err != nil {
			log.Fatalf("window %d failed: %v", window, err)
		}
		fmt.Printf("  window %d: %v readings\n", window, resp.Result.Rows[0][0])
	}
}
