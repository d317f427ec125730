// Command benchtool regenerates the figures of the paper's evaluation
// section from this repository's cost model, calibration and exposure
// analysis.
//
// Usage:
//
//	benchtool -fig 8h        # Fig 8 exposure sweep over h (8nf: over nf)
//	benchtool -fig 9b        # unit-test partition breakdown
//	benchtool -fig 10a       # one Fig 10 panel (a-j)
//	benchtool -fig 10        # all Fig 10 panels
//	benchtool -fig 11        # qualitative comparison axes
//	benchtool -fig all       # 9b, 10 and 11 (the default)
//	benchtool -fig phases    # per-phase cost decomposition (-audit replicas)
//	benchtool -fig validate  # cost model against a live run (-fleet, -groups, -seed)
//
// Wall-clock measurement is bench/run.sh, not this tool.
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"github.com/trustedcells/tcq/internal/accessctl"
	"github.com/trustedcells/tcq/internal/core"
	"github.com/trustedcells/tcq/internal/costmodel"
	"github.com/trustedcells/tcq/internal/figures"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/querier"
	"github.com/trustedcells/tcq/internal/tdscrypto"
	"github.com/trustedcells/tcq/internal/workload"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 8h, 8nf, 9b, 10, 10a..10j, 11, phases, validate, all")
	replicas := flag.Int("audit", 1, "phases: audit replication factor")
	fleet := flag.Int("fleet", 150, "validate: live fleet size")
	groups := flag.Int("groups", 10, "validate: number of districts (G)")
	seed := flag.Int64("seed", 7, "validate: RNG seed")
	flag.Parse()
	if err := run(*fig, *replicas, *fleet, *groups, *seed, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchtool:", err)
		os.Exit(1)
	}
}

// run prints one figure (or every figure of the evaluation section for
// "all") to out.
func run(fig string, replicas, fleet, groups int, seed int64, out io.Writer) error {
	switch {
	case fig == "8h":
		fmt.Fprint(out, figures.Fig8HSweep(200, 40000, seed).Render())
	case fig == "8nf":
		fmt.Fprint(out, figures.Fig8NfSweep(150, 20000, seed).Render())
	case fig == "phases":
		fmt.Fprintf(out, "Per-phase cost decomposition (audit replicas = %d)\n", replicas)
		for _, fc := range costmodel.FullAll(costmodel.Params{}, replicas) {
			fmt.Fprint(out, fc.String())
		}
	case fig == "validate":
		return printValidate(out, fleet, groups, seed)
	case fig == "all":
		print9b(out)
		printFig10All(out)
		print11(out)
	case fig == "9b":
		print9b(out)
	case fig == "10":
		printFig10All(out)
	case strings.HasPrefix(fig, "10"):
		f, err := figures.Fig10(strings.TrimPrefix(fig, "10"))
		if err != nil {
			return err
		}
		fmt.Fprint(out, f.Render())
	case fig == "11":
		print11(out)
	default:
		return fmt.Errorf("unknown figure %q (want 8h, 8nf, 9b, 10, 10a..10j, 11, phases, validate, all)", fig)
	}
	return nil
}

func print9b(out io.Writer) {
	b := figures.Fig9b()
	fmt.Fprintln(out, "Fig 9b — internal time consumption, 4 KB partition (calibrated unit test)")
	fmt.Fprintf(out, "  transfer : %v\n", b.Transfer)
	fmt.Fprintf(out, "  CPU      : %v\n", b.CPU)
	fmt.Fprintf(out, "  decrypt  : %v\n", b.Decrypt)
	fmt.Fprintf(out, "  encrypt  : %v\n", b.Encrypt)
	fmt.Fprintf(out, "  total    : %v\n\n", b.Total())
}

func printFig10All(out io.Writer) {
	for _, f := range figures.Fig10All() {
		fmt.Fprintln(out, f.Render())
	}
}

func print11(out io.Writer) {
	fmt.Fprintln(out, "Fig 11 — qualitative comparison (worst ... best), derived from the model")
	for _, a := range figures.Fig11() {
		fmt.Fprintf(out, "  %-44s %s\n", a.Axis+":", strings.Join(a.Order, "  "))
	}
	fmt.Fprintln(out)
}

// printValidate runs a district-level aggregate under each protocol of the
// model's Load_Q ordering on one live fleet, prints every run's
// conformance report, then the protocols ordered by measured and by
// predicted Load_Q. The model licenses extrapolation to nation scale only
// where the two orders agree.
func printValidate(out io.Writer, fleet, groups int, seed int64) error {
	w := workload.DefaultSmartMeter(seed)
	w.Districts = groups
	w.Readings = 1 // one tuple per device, as in the model's N_t
	eng, err := core.NewEngine(core.Config{
		Schema:            w.Schema(),
		Policy:            &accessctl.Policy{Rules: []accessctl.Rule{{Role: "energy-analyst", AggregateOnly: true}}},
		AuthorityKey:      tdscrypto.DeriveKey(tdscrypto.Key{}, "validate-auth"),
		MasterKey:         tdscrypto.DeriveKey(tdscrypto.Key{}, "validate-master"),
		AvailableFraction: 0.5,
		Seed:              seed,
	})
	if err != nil {
		return err
	}
	if err := eng.ProvisionFleet(fleet, w.HouseholdDB); err != nil {
		return err
	}
	cred := eng.Authority().Issue("validator", []string{"energy-analyst"},
		time.Unix(1700000000, 0).Add(time.Hour))
	q, err := querier.New("validator", eng.K1(), cred, eng.Schema())
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "cross-validation: fleet=%d G=%d\n", fleet, groups)
	var reps []*core.ConformanceReport
	for _, req := range []core.Request{{Kind: protocol.KindSAgg}, {Kind: protocol.KindEDHist},
		{Kind: protocol.KindRnfNoise, Params: protocol.Params{Nf: 2}}, {Kind: protocol.KindCNoise}} {
		req.Querier = q
		req.SQL = `SELECT C.district, AVG(P.cons) FROM Power P, Consumer C WHERE C.cid = P.cid GROUP BY C.district`
		resp, err := eng.Execute(context.Background(), req)
		if err != nil || resp.Conformance == nil {
			return fmt.Errorf("validate: %v: no conformance report (%v)", req.Kind, err)
		}
		fmt.Fprint(out, resp.Conformance)
		reps = append(reps, resp.Conformance)
	}
	order := func(load func(*core.ConformanceReport) float64) string {
		slices.SortStableFunc(reps, func(a, b *core.ConformanceReport) int { return cmp.Compare(load(a), load(b)) })
		names := make([]string, len(reps))
		for i, r := range reps {
			names[i] = r.Protocol
		}
		return strings.Join(names, " < ")
	}
	fmt.Fprintf(out, "Load_Q order (measured): %s\n", order(func(r *core.ConformanceReport) float64 { return float64(r.MeasuredLoadQ) }))
	fmt.Fprintf(out, "Load_Q order (predicted): %s\n", order(func(r *core.ConformanceReport) float64 { return r.PredictedLoadQ }))
	return nil
}
