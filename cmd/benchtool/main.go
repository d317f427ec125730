// Command benchtool regenerates the figures of the paper's evaluation
// section from this repository's cost model, calibration and exposure
// analysis.
//
// Usage:
//
//	benchtool -fig 9b        # unit-test partition breakdown
//	benchtool -fig 10a       # one Fig 10 panel (a-j)
//	benchtool -fig 10        # all Fig 10 panels
//	benchtool -fig 11        # qualitative comparison axes
//	benchtool -fig all       # everything
//	benchtool -bench-json    # measure the live collection pipeline and
//	                         # write BENCH_collection.json (regression record)
//	benchtool -concurrent-sweep
//	                         # measure the multi-tenant query server and
//	                         # write BENCH_concurrent.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
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
	benchJSON := flag.Bool("bench-json", false, "measure the live collection pipeline and write -bench-out")
	benchOut := flag.String("bench-out", "BENCH_collection.json", "bench-json: output file")
	benchFleet := flag.Int("bench-fleet", 200, "bench-json: fleet size")
	benchWorkers := flag.Int("bench-workers", 0, "bench-json: CollectWorkers (0 = GOMAXPROCS)")
	benchIters := flag.Int("bench-iters", 20, "bench-json: iterations per benchmark")
	benchScenario := flag.String("bench-scenario", "both", "bench-json: clean | churn | both")
	fleetSweep := flag.Bool("fleet-sweep", false, "measure packed fleets across -fleet-sizes and write -fleet-out")
	fleetOut := flag.String("fleet-out", "BENCH_fleet.json", "fleet-sweep: output file")
	fleetSizes := flag.String("fleet-sizes", "1000,100000,1000000", "fleet-sweep: comma-separated fleet sizes")
	fleetIters := flag.Int("fleet-iters", 1, "fleet-sweep: collection iterations per fleet size")
	fleetBudget := flag.Float64("fleet-budget", 0, "fleet-sweep: fail if packed provisioning exceeds this many bytes/device (0 = no gate)")
	concurrentSweep := flag.Bool("concurrent-sweep", false, "measure the multi-tenant query server across -concurrent-queries and write -concurrent-out")
	concurrentOut := flag.String("concurrent-out", "BENCH_concurrent.json", "concurrent-sweep: output file")
	concurrentFleet := flag.Int("concurrent-fleet", 200, "concurrent-sweep: fleet size")
	concurrentQueries := flag.String("concurrent-queries", "1,16,256", "concurrent-sweep: comma-separated in-flight query counts")
	concurrentInflight := flag.Int("concurrent-inflight", 0, "concurrent-sweep: Server MaxInFlight (0 = GOMAXPROCS)")
	rotationScenario := flag.Bool("rotation-scenario", false, "measure a collection pass with a live mid-query key rotation and merge the records into -fleet-out")
	rotationFleet := flag.Int("rotation-fleet", 100000, "rotation-scenario: packed fleet size")
	flag.Parse()
	if *rotationScenario {
		if err := runRotationScenario(*fleetOut, *rotationFleet, *fleetIters, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchtool:", err)
			os.Exit(1)
		}
		return
	}
	if *concurrentSweep {
		if err := runConcurrentSweep(*concurrentOut, *concurrentQueries, *concurrentFleet, *concurrentInflight, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchtool:", err)
			os.Exit(1)
		}
		return
	}
	if *fleetSweep {
		if err := runFleetSweep(*fleetOut, *fleetSizes, *fleetIters, *fleetBudget, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchtool:", err)
			os.Exit(1)
		}
		return
	}
	if *benchJSON {
		workers := *benchWorkers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if err := runBenchJSON(*benchOut, *benchFleet, workers, *benchIters, *benchScenario, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchtool:", err)
			os.Exit(1)
		}
		return
	}
	if err := run2(*fig, *replicas, *fleet, *groups, *seed, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchtool:", err)
		os.Exit(1)
	}
}

// run2 dispatches the extended modes before falling back to the figure
// modes of run.
func run2(fig string, replicas, fleet, groups int, seed int64, out io.Writer) error {
	switch fig {
	case "8h":
		fmt.Fprint(out, figures.Fig8HSweep(200, 40000, seed).Render())
		return nil
	case "8nf":
		fmt.Fprint(out, figures.Fig8NfSweep(150, 20000, seed).Render())
		return nil
	case "phases":
		fmt.Fprintf(out, "Per-phase cost decomposition (audit replicas = %d)\n", replicas)
		for _, fc := range costmodel.FullAll(costmodel.Params{}, replicas) {
			fmt.Fprint(out, fc.String())
		}
		return nil
	case "validate":
		rep, err := validate.Run(fleet, groups, seed)
		if err != nil {
			return err
		}
		fmt.Fprint(out, rep.String())
		return nil
	default:
		return run(fig, out)
	}
}

func run(fig string, out io.Writer) error {
	switch {
	case fig == "all":
		print9b(out)
		printFig10All(out)
		print11(out)
		return nil
	case fig == "9b":
		print9b(out)
		return nil
	case fig == "10":
		printFig10All(out)
		return nil
	case strings.HasPrefix(fig, "10"):
		f, err := figures.Fig10(strings.TrimPrefix(fig, "10"))
		if err != nil {
			return err
		}
		fmt.Fprint(out, f.Render())
		return nil
	case fig == "11":
		print11(out)
		return nil
	default:
		return fmt.Errorf("unknown figure %q (want 9b, 10, 10a..10j, 11, all)", fig)
	}
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
