// Command bench is the repository's benchmark: four workloads that each
// make a different stage of a query expensive, measured end to end on the
// wall clock and the simulated clock, plus a per-layer ledger taken from
// outside the program. README.md explains every number.
//
//	bench/run.sh                                  # all workloads, both passes
//	bench/run.sh -workload wide_fleet -trace 0    # end-to-end metrics only
//	bench/run.sh -workload wide_fleet -trace 1    # per-layer metrics only
//	bench/run.sh -selfcheck                       # two sets of runs must agree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// outDir receives one JSON record and one span file per workload;
// run.sh starts the program in the benchmark's own directory.
const outDir = "out"

// header is the environment a record was taken in.
type header struct {
	Cores      int    `json:"cores"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

// record is the file written per workload: the header and whichever
// passes ran.
type record struct {
	Header   header  `json:"header"`
	Workload string  `json:"workload"`
	EndToEnd *result `json:"end_to_end,omitempty"`
	PerLayer *result `json:"per_layer,omitempty"`
}

func (r *result) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				r.Metrics[name] = metric{Value: v, Unit: d.unit}
				return
			}
		}
	}
	panic("bench: undeclared metric " + name)
}

// complete reports the first declared metric the result lacks.
func (r *result) complete(defs []metricDef) error {
	for _, d := range defs {
		if _, ok := r.Metrics[d.name]; !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
	}
	return nil
}

func logf(format string, args ...any) { fmt.Printf(format+"\n", args...) }

// printResult lists every metric by name and unit, then the one-line
// JSON object the driver reads.
func printResult(title string, defs []metricDef, res *result) error {
	logf("%s", title)
	for _, d := range defs {
		if m, ok := res.Metrics[d.name]; ok {
			logf("  %-36s %14.4f %s", d.name, m.Value, m.Unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	logf("%s", line)
	return nil
}

// runOne runs the requested passes of one workload, prints them and
// writes the workload's record.
func runOne(s *spec, hdr header, trace string) (*record, error) {
	rec := &record{Header: hdr, Workload: s.name}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	window := time.Duration(hdr.Seconds) * time.Second
	if trace != "1" {
		res, err := runWindow(s, hdr.Seed, window)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		if res.Correct {
			if err := res.complete(endToEnd); err != nil {
				return nil, err
			}
		}
		rec.EndToEnd = res
		if err := printResult(s.name+" end to end (untraced)", endToEnd, res); err != nil {
			return nil, err
		}
	}
	if trace != "0" {
		res, err := runTraced(s, hdr.Seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		if res.Correct {
			if err := res.complete(perLayer); err != nil {
				return nil, err
			}
		}
		rec.PerLayer = res
		if err := printResult(s.name+" per layer (traced)", perLayer, res); err != nil {
			return nil, err
		}
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(outDir, s.name+".json"), append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	return rec, nil
}

// ok reports whether every pass of the record answered correctly.
func (r *record) ok() bool {
	return (r.EndToEnd == nil || r.EndToEnd.Correct) && (r.PerLayer == nil || r.PerLayer.Correct)
}

// runSet runs every selected workload once.
func runSet(names []string, hdr header, trace string) (map[string]*record, error) {
	out := map[string]*record{}
	for _, name := range names {
		s := specByName(name)
		if s == nil {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		rec, err := runOne(s, hdr, trace)
		if err != nil {
			return nil, err
		}
		if !rec.ok() {
			return nil, fmt.Errorf("%s: wrong answers", name)
		}
		out[name] = rec
	}
	return out, nil
}

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "drives the data generator, engine seed, fault-plan seed and QueryIDs")
	seconds := flag.Int("seconds", 20, "length of the untraced measured window")
	trace := flag.String("trace", "both", "0: end-to-end metrics, 1: per-layer metrics, both")
	commit := flag.String("commit", "unknown", "revision of the checkout, for the record's header")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice and require the two sets to agree")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != "0" && *trace != "1" && *trace != "both") {
		flag.Usage()
		os.Exit(2)
	}

	hdr := header{
		Cores:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     *commit,
		Seed:       *seed,
		Seconds:    *seconds,
	}
	logf("bench: cores=%d gomaxprocs=%d go=%s commit=%s seed=%d seconds=%d",
		hdr.Cores, hdr.GoMaxProcs, hdr.GoVersion, hdr.Commit, hdr.Seed, hdr.Seconds)

	var names []string
	if *workload == "all" {
		for _, s := range specs {
			names = append(names, s.name)
		}
	} else {
		names = []string{*workload}
	}

	var err error
	if *selfcheck {
		err = runSelfcheck(names, hdr)
	} else {
		_, err = runSet(names, hdr, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
