package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/trustedcells/tcq/internal/obs"
)

func TestRunAllProtocols(t *testing.T) {
	for _, proto := range []string{"basic", "s_agg", "rnf_noise", "c_noise", "ed_hist"} {
		query := defaultQuery
		if proto == "basic" {
			query = `SELECT C.cid, C.district FROM Consumer C WHERE C.accommodation = 'flat'`
		}
		if err := runOpts(options{fleet: 40, protoName: proto, query: query,
			nf: 2, available: 0.5, audit: 1, seed: 7, verify: true}); err != nil {
			t.Errorf("%s: %v", proto, err)
		}
	}
}

// printed runs tdsnet with the given command line and returns what it
// wrote to standard output, less the two lines that differ between any two
// runs: the wall-clock time and the digest over randomly-nonced ciphertext.
func printed(t *testing.T, args ...string) string {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	err = runOpts(parseFlags(args))
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.Contains(line, "wall clock") && !strings.Contains(line, "run digest") {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "\n")
}

// TestRunWithFailures: -failure is -churn-crash under its older name, so
// the two spellings print the same run byte for byte — one crash share in
// the header, the same rows, metrics and ledger. The share is 1 so that
// the re-assignment the test looks for does not rest on who the run's
// two assignments happen to draw: every first assignee crashes, whatever
// the stream, and the phase's re-assignment cap lets the run finish.
func TestRunWithFailures(t *testing.T) {
	common := []string{"-fleet", "30", "-available", "0.5", "-seed", "3"}
	failure := printed(t, append(common, "-failure", "1")...)
	crash := printed(t, append(common, "-churn-crash", "1")...)
	if failure != crash {
		t.Errorf("-failure 1 and -churn-crash 1 print different runs:\n%s\n---\n%s", failure, crash)
	}
	if strings.Count(failure, "100%") != 1 || !strings.Contains(failure, "crash=100%") {
		t.Errorf("the header must print the crash share once:\n%s", failure)
	}
	if !strings.Contains(failure, " reassign ") {
		t.Errorf("the whole fleet crashing re-assigned nothing:\n%s", failure)
	}
}

func TestParseProtocol(t *testing.T) {
	ok := map[string]string{
		"basic": "Basic", "S_AGG": "S_Agg", "sagg": "S_Agg",
		"rnf": "Rnf_Noise", "cnoise": "C_Noise", "hist": "ED_Hist",
	}
	for in, want := range ok {
		k, err := parseProtocol(in)
		if err != nil || k.String() != want {
			t.Errorf("parseProtocol(%q) = %v, %v", in, k, err)
		}
	}
	if _, err := parseProtocol("nope"); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	o := options{fleet: 10, protoName: "nope", query: defaultQuery,
		available: 0.5, audit: 1, seed: 1, verify: true}
	if err := runOpts(o); err == nil {
		t.Error("bad protocol accepted")
	}
	o.protoName, o.query = "s_agg", "not sql"
	if err := runOpts(o); err == nil {
		t.Error("bad query accepted")
	}
}

func TestRunWithChurn(t *testing.T) {
	o := options{
		fleet: 40, protoName: "s_agg", query: defaultQuery,
		available: 0.5, audit: 1, seed: 7,
		churnOffline: 0.15, churnDrop: 0.1, churnCorrupt: 0.1,
		churnCrash: 0.2, faultSeed: 21,
	}
	if err := runOpts(o); err != nil {
		t.Fatal(err)
	}
}

// TestObservabilityExports runs a churned query with -trace-out,
// -metrics-out and -journal-out targets and validates the artifacts.
func TestObservabilityExports(t *testing.T) {
	runAndCheckExports(t, options{
		fleet: 40, protoName: "s_agg", query: defaultQuery,
		available: 0.5, audit: 1, seed: 7,
		churnOffline: 0.1, churnDrop: 0.1, churnCrash: 0.2, faultSeed: 21,
	})
}

// TestConcurrentObservabilityExports: -concurrent N honours the same
// export flags as a single run — query cc-0000's trace and journal, and
// the engine-wide registry.
func TestConcurrentObservabilityExports(t *testing.T) {
	runAndCheckExports(t, options{
		fleet: 30, protoName: "s_agg", query: defaultQuery,
		available: 0.5, audit: 1, seed: 7, verify: true, concurrent: 2,
	})
}

// runAndCheckExports runs o with every export target set and validates
// the three artifacts: the trace file is line-delimited JSON covering
// every phase, the metrics file parses as Prometheus text, the journal
// passes its schema check.
func runAndCheckExports(t *testing.T, o options) {
	t.Helper()
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "trace.jsonl")
	metricsFile := filepath.Join(dir, "metrics.prom")
	journalFile := filepath.Join(dir, "journal.jsonl")
	o.traceOut, o.metricsOut, o.journalOut, o.traceSummary = traceFile, metricsFile, journalFile, true
	if err := runOpts(o); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	lines := 0
	for sc.Scan() {
		lines++
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("trace line %d is not JSON: %v\n%s", lines, err, sc.Text())
		}
		if n, ok := rec["name"].(string); ok {
			names[n] = true
		}
	}
	if lines < 10 {
		t.Fatalf("trace has only %d lines; expected a full span tree", lines)
	}
	for _, want := range []string{"execute", "collect", "deliver", "deposit"} {
		if !names[want] {
			t.Errorf("trace is missing %q records (have %v)", want, names)
		}
	}

	mf, err := os.Open(metricsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	if err := obs.CheckText(mf); err != nil {
		t.Fatalf("metrics file fails the Prometheus checker: %v", err)
	}
	mraw, _ := os.ReadFile(metricsFile)
	if !strings.Contains(string(mraw), "tcq_queries_total") {
		t.Error("metrics file missing tcq_queries_total")
	}

	jf, err := os.Open(journalFile)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	if err := obs.CheckJournal(jf); err != nil {
		t.Fatalf("journal file fails the schema checker: %v", err)
	}
	jraw, _ := os.ReadFile(journalFile)
	for _, want := range []string{`"kind":"query-start"`, `"kind":"phase-end"`, `"kind":"query-end"`} {
		if !strings.Contains(string(jraw), want) {
			t.Errorf("journal file missing %s events", want)
		}
	}
}

// TestJournalExportSampledFleet: a 0<rate<1 trace sample still exports a
// complete, schema-valid journal (sampling bounds traces, never the
// journal), and the conformance report reaches the run summary.
func TestJournalExportSampledFleet(t *testing.T) {
	dir := t.TempDir()
	journalFile := filepath.Join(dir, "journal.jsonl")
	o := options{
		fleet: 60, protoName: "s_agg", query: defaultQuery,
		available: 0.5, audit: 1, seed: 7, traceSample: 0.1,
		journalOut: journalFile,
	}
	if err := runOpts(o); err != nil {
		t.Fatal(err)
	}
	jf, err := os.Open(journalFile)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	if err := obs.CheckJournal(jf); err != nil {
		t.Fatalf("sampled run's journal fails the schema checker: %v", err)
	}
}

func TestFaultPlanOnlyWhenScripted(t *testing.T) {
	if p, err := (options{}).faultPlan(); err != nil || p != nil {
		t.Errorf("zero options grew a fault plan: %+v (err %v)", p, err)
	}
	p, err := (options{churnDrop: 0.2, faultSeed: 5}).faultPlan()
	if err != nil || p == nil || p.DropFraction != 0.2 || p.Seed != 5 {
		t.Errorf("fault plan = %+v (err %v)", p, err)
	}
	if p, err := (options{coverageFloor: 0.5}).faultPlan(); err != nil || p == nil {
		t.Errorf("coverage floor alone should still build a plan (err %v)", err)
	}
	p, err = (options{ssiAdversary: "drop-tuple, forge-coverage", ssiPersistent: true}).faultPlan()
	if err != nil || p == nil || p.SSI == nil || len(p.SSI.Behaviors) != 2 || !p.SSI.Persistent {
		t.Errorf("SSI script alone should build a plan: %+v (err %v)", p, err)
	}
	if _, err := (options{ssiAdversary: "melt-datacenter"}).faultPlan(); err == nil {
		t.Error("unknown misbehavior name was accepted")
	}
}
