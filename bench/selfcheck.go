package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// benchmarkFile is BENCHMARK.json at the root of the repository: the
// contract the driver checks the benchmark against, and the one place
// the regression bounds are written down.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// benchmarkPath is relative to the benchmark's own directory, where
// run.sh starts the program and go test runs the tests.
const benchmarkPath = "../BENCHMARK.json"

func loadBenchmarkFile() (*benchmarkFile, error) {
	data, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", benchmarkPath, err)
	}
	return &bf, nil
}

// runSelfcheck runs every workload twice, back to back, and requires the
// benchmark to agree with itself: every end-to-end metric within its
// bound, simulated metrics and per-layer counts exactly, and the four
// workloads still stressing the stages they were chosen for.
func runSelfcheck(names []string, hdr header) error {
	bf, err := loadBenchmarkFile()
	if err != nil {
		return err
	}
	var sets [2]map[string]*record
	for i := range sets {
		logf("selfcheck: set %d of 2", i+1)
		if sets[i], err = runSet(names, hdr, "both"); err != nil {
			return err
		}
	}

	var problems []string
	problem := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	for _, name := range names {
		a, b := sets[0][name], sets[1][name]
		for _, m := range bf.EndToEnd {
			x, y := a.EndToEnd.Metrics[m.Name].Value, b.EndToEnd.Metrics[m.Name].Value
			switch {
			case strings.HasPrefix(m.Name, "sim_"):
				if x != y {
					problem("%s %s: simulated metric changed, %v then %v", name, m.Name, x, y)
				}
			case math.Abs(y-x) > m.Bound*x:
				problem("%s %s: %.4f then %.4f, apart by more than the bound %.0f%%", name, m.Name, x, y, m.Bound*100)
			}
		}
		for _, m := range bf.PerLayer {
			x, y := a.PerLayer.Metrics[m.Name].Value, b.PerLayer.Metrics[m.Name].Value
			if m.Unit == "count" && x != y {
				problem("%s %s: count changed, %v then %v", name, m.Name, x, y)
			}
		}
	}
	for i, set := range sets {
		for _, p := range discrimination(set) {
			problem("set %d: %s", i+1, p)
		}
	}
	for _, p := range problems {
		logf("selfcheck: %s", p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("selfcheck: %d disagreements", len(problems))
	}
	logf("selfcheck: two sets of runs agree")
	return nil
}

// discrimination checks that each workload still makes the stage it was
// chosen for expensive. The thresholds sit well inside what the seed
// commit measures (README.md lists both); crossing one means the
// workloads no longer tell the stages apart and need re-cutting.
func discrimination(set map[string]*record) []string {
	layer := func(w, m string) (float64, bool) {
		r := set[w]
		if r == nil {
			return 0, false
		}
		return r.PerLayer.Metrics[m].Value, true
	}
	var out []string
	if v, ok := layer("wide_fleet", "core.collect_share"); ok && v < 0.8 {
		out = append(out, fmt.Sprintf("wide_fleet core.collect_share %.2f < 0.80", v))
	}
	if v, ok := layer("deep_device", "core.collect_share"); ok && v > 0.65 {
		out = append(out, fmt.Sprintf("deep_device core.collect_share %.2f > 0.65", v))
	}
	if v, ok := layer("noise_tagged", "core.integrity_share"); ok {
		busy, _ := layer("noise_tagged", "ssi.busy_share")
		if v+busy < 0.35 {
			out = append(out, fmt.Sprintf("noise_tagged core.integrity_share + ssi.busy_share %.2f < 0.35", v+busy))
		}
	}
	if srv := set["server_mix"]; srv != nil {
		p50 := srv.EndToEnd.Metrics["query_wall_ms_p50"].Value
		for _, s := range specs {
			r := set[s.name]
			if r == nil || s.server {
				continue
			}
			if other := r.EndToEnd.Metrics["query_wall_ms_p50"].Value; p50 > other/3 {
				out = append(out, fmt.Sprintf("server_mix p50 %.1f ms is more than a third of %s's %.1f ms", p50, s.name, other))
			}
		}
	}
	return out
}
