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
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/trustedcells/tcq/internal/costmodel"
	"github.com/trustedcells/tcq/internal/figures"
	"github.com/trustedcells/tcq/internal/validate"
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
		rep, err := validate.Run(fleet, groups, seed)
		if err != nil {
			return err
		}
		fmt.Fprint(out, rep.String())
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
