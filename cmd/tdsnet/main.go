// Command tdsnet runs a privacy-preserving query end-to-end over an
// in-process fleet of Trusted Data Servers: collection, aggregation and
// filtering phases through an honest-but-curious SSI, with simulated-time
// metrics from the calibrated hardware model.
//
// Usage:
//
//	tdsnet -fleet 200 -protocol s_agg \
//	   -query "SELECT C.district, AVG(P.cons) FROM Power P, Consumer C
//	           WHERE C.cid = P.cid GROUP BY C.district"
//
// Protocols: basic, s_agg, rnf_noise, c_noise, ed_hist.
//
// The -churn-* flags script deterministic fleet churn (seeded by
// -fault-seed): offline windows, deposits dropped mid-transfer, corrupted
// uploads, slow devices and crash-before-commit during the aggregation
// phases. The run then reports its coverage ratio and recovery account.
//
// The -rotate-every/-revoke-ids flags exercise the live key lifecycle
// through a fault plan's RotationScript, the one way to rotate mid-query: a
// signed trust-bundle rotation (and optional broadcast revocation)
// begins mid-collection and rolls out in staged waves while the query is
// in flight. The grace window keeps both epochs serving, and closes
// itself when the query ends if the last wave has landed; the run reports
// how many stale deposits were retried and which devices stayed expelled.
//
// The -ssi-adversary flag upgrades the threat model from honest-but-curious
// to weakly malicious: the SSI itself misbehaves on schedule (dropping,
// duplicating, replaying or equivocating ciphertext, forging coverage
// claims). Verified execution (-verify, on by default) checks the SSI
// against the fleet's k2-keyed deposit commitments and either recovers the
// honest result or fails with a typed detection error — never a silently
// wrong answer. -ssi-persistent re-strikes on quarantine retries, forcing
// the degradation path.
//
// Observability flags:
//
//	-trace-out q.jsonl    write the query's span tree (simulated-clock
//	                      timestamps, one event per device the collection
//	                      reached) as JSON lines
//	-trace-summary        render the span tree as an ASCII summary
//	-journal-out q.jsonl  write the structured query journal as JSON lines
//
// The printed metrics, the trace and the journal are the query's whole
// record; the engine keeps no account that outlives a run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/trustedcells/tcq/internal/accessctl"
	"github.com/trustedcells/tcq/internal/core"
	"github.com/trustedcells/tcq/internal/faultplan"
	"github.com/trustedcells/tcq/internal/obs"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/querier"
	"github.com/trustedcells/tcq/internal/ssi"
	"github.com/trustedcells/tcq/internal/tdscrypto"
	"github.com/trustedcells/tcq/internal/workload"
)

// distinct counts unique strings.
func distinct(xs []string) int {
	set := map[string]bool{}
	for _, x := range xs {
		set[x] = true
	}
	return len(set)
}

const defaultQuery = `SELECT C.district, AVG(P.cons) FROM Power P, Consumer C ` +
	`WHERE C.accommodation = 'detached house' AND C.cid = P.cid ` +
	`GROUP BY C.district HAVING COUNT(DISTINCT C.cid) > 2`

// options is everything one tdsnet invocation configures.
type options struct {
	fleet       int
	protoName   string
	query       string
	nf          int
	buckets     int
	available   float64
	audit       int
	compromised float64
	seed        int64
	timeout     time.Duration

	churnOffline  float64
	churnDrop     float64
	churnCorrupt  float64
	churnSlow     float64
	churnCrash    float64
	faultSeed     int64
	coverageFloor float64

	ssiAdversary  string
	ssiPersistent bool
	verify        bool

	rotateEvery int
	rotateWaves int
	revokeIDs   string

	concurrent int
	inflight   int

	traceOut     string
	traceSummary bool
	journalOut   string
}

// faultPlan assembles the scripted churn and SSI misbehavior, or nil when
// no fault flag is set.
func (o options) faultPlan() (*faultplan.Plan, error) {
	script, err := parseSSIScript(o.ssiAdversary, o.ssiPersistent)
	if err != nil {
		return nil, err
	}
	rot := o.rotationScript()
	if o.churnOffline == 0 && o.churnDrop == 0 && o.churnCorrupt == 0 &&
		o.churnSlow == 0 && o.churnCrash == 0 && o.coverageFloor == 0 &&
		script == nil && rot == nil {
		return nil, nil
	}
	return &faultplan.Plan{
		Seed:            o.faultSeed,
		OfflineFraction: o.churnOffline,
		DropFraction:    o.churnDrop,
		CorruptFraction: o.churnCorrupt,
		SlowFraction:    o.churnSlow,
		CrashFraction:   o.churnCrash,
		CoverageFloor:   o.coverageFloor,
		SSI:             script,
		Rotation:        rot,
	}, nil
}

// rotationScript turns the -rotate-every/-rotate-waves/-revoke-ids flags
// into a live-rotation script, or nil when none is set. -revoke-ids
// without -rotate-every revokes at the first committed deposit and
// applies the whole rollout at once.
func (o options) rotationScript() *faultplan.RotationScript {
	var ids []string
	for _, id := range strings.Split(o.revokeIDs, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	if o.rotateEvery <= 0 && len(ids) == 0 {
		return nil
	}
	after := o.rotateEvery
	if after <= 0 {
		after = 1
	}
	return &faultplan.RotationScript{
		AfterDeposits: after,
		Waves:         o.rotateWaves,
		WaveEvery:     o.rotateEvery,
		Revoke:        ids,
	}
}

// parseSSIScript turns the -ssi-adversary flag's comma-separated behavior
// list into a script, or nil when the flag is empty.
func parseSSIScript(list string, persistent bool) (*faultplan.SSIScript, error) {
	if list == "" {
		return nil, nil
	}
	known := faultplan.SSIMisbehaviors()
	var bs []faultplan.SSIMisbehavior
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, b := range known {
			if string(b) == name {
				bs = append(bs, b)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown SSI misbehavior %q (known: %v)", name, known)
		}
	}
	if len(bs) == 0 {
		return nil, nil
	}
	return &faultplan.SSIScript{Behaviors: bs, Persistent: persistent}, nil
}

// parseFlags turns a command line into options; a bad flag exits.
func parseFlags(args []string) options {
	var o options
	fs := flag.NewFlagSet("tdsnet", flag.ExitOnError)
	fs.IntVar(&o.fleet, "fleet", 200, "number of TDSs (smart meters)")
	fs.StringVar(&o.protoName, "protocol", "s_agg", "basic | s_agg | rnf_noise | c_noise | ed_hist")
	fs.StringVar(&o.query, "query", defaultQuery, "SQL query to execute")
	fs.IntVar(&o.nf, "nf", 2, "Rnf_Noise: fake tuples per true tuple")
	fs.IntVar(&o.buckets, "buckets", 0, "ED_Hist: histogram buckets (0 = derive from h=5)")
	fs.Float64Var(&o.available, "available", 0.10, "fraction of the fleet connected for aggregation")
	fs.IntVar(&o.audit, "audit", 1, "audit replicas per partition (compromised-TDS extension)")
	fs.Float64Var(&o.compromised, "compromised", 0, "fraction of the fleet marked compromised")
	fs.Int64Var(&o.seed, "seed", 42, "RNG seed")
	fs.DurationVar(&o.timeout, "timeout", 0, "wall-clock bound on the whole run (0 = none)")
	fs.Float64Var(&o.churnOffline, "churn-offline", 0, "fraction of devices offline for the whole query")
	fs.Float64Var(&o.churnDrop, "churn-drop", 0, "fraction of devices that vanish mid-deposit")
	fs.Float64Var(&o.churnCorrupt, "churn-corrupt", 0, "fraction of deposits arriving corrupted")
	fs.Float64Var(&o.churnSlow, "churn-slow", 0, "fraction of devices with inflated connection latency")
	fs.Float64Var(&o.churnCrash, "churn-crash", 0, "fraction of devices crashing before committing a partition")
	fs.Int64Var(&o.faultSeed, "fault-seed", 1, "seed of the scripted churn")
	fs.Float64Var(&o.coverageFloor, "coverage-floor", 0, "fail the query below this collection coverage ratio")
	fs.StringVar(&o.ssiAdversary, "ssi-adversary", "",
		"comma-separated SSI misbehaviors to script (drop-tuple, duplicate-tuple, replay-stale-partition, forge-coverage, equivocate-partitioning)")
	fs.BoolVar(&o.ssiPersistent, "ssi-persistent", false,
		"re-strike scripted SSI misbehaviors on every opportunity, including quarantine retries")
	fs.BoolVar(&o.verify, "verify", true,
		"verify the SSI against the fleet's deposit commitments (disable to isolate protocol cost)")
	fs.IntVar(&o.rotateEvery, "rotate-every", 0,
		"begin a live key rotation after N committed deposits and advance one rollout wave every further N (0 = no rotation)")
	fs.IntVar(&o.rotateWaves, "rotate-waves", 3,
		"staged-rollout wave count for -rotate-every / -revoke-ids")
	fs.StringVar(&o.revokeIDs, "revoke-ids", "",
		"comma-separated device IDs (e.g. tds-00007) revoked at the rotation point")
	fs.IntVar(&o.concurrent, "concurrent", 1,
		"run the query N times at once through the multi-tenant server (N > 1)")
	fs.IntVar(&o.inflight, "inflight", 0,
		"concurrent: server MaxInFlight (0 = GOMAXPROCS)")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the query trace as JSON lines to this file")
	fs.BoolVar(&o.traceSummary, "trace-summary", false, "print the query trace as an ASCII span tree")
	fs.StringVar(&o.journalOut, "journal-out", "", "write the structured query journal (JSON lines) to this file")
	_ = fs.Parse(args) // ExitOnError: Parse does not return an error
	return o
}

func main() {
	if err := runOpts(parseFlags(os.Args[1:])); err != nil {
		fmt.Fprintln(os.Stderr, "tdsnet:", err)
		os.Exit(1)
	}
}

func parseProtocol(name string) (protocol.Kind, error) {
	switch strings.ToLower(name) {
	case "basic":
		return protocol.KindBasic, nil
	case "s_agg", "sagg":
		return protocol.KindSAgg, nil
	case "rnf_noise", "rnf":
		return protocol.KindRnfNoise, nil
	case "c_noise", "cnoise":
		return protocol.KindCNoise, nil
	case "ed_hist", "edhist", "hist":
		return protocol.KindEDHist, nil
	default:
		return 0, fmt.Errorf("unknown protocol %q", name)
	}
}

func runOpts(o options) error {
	kind, err := parseProtocol(o.protoName)
	if err != nil {
		return err
	}
	w := workload.DefaultSmartMeter(o.seed)
	eng, err := core.NewEngine(core.Config{
		Schema: w.Schema(),
		Policy: &accessctl.Policy{Rules: []accessctl.Rule{
			{Role: "energy-analyst", AggregateOnly: true},
			{Role: "auditor"},
		}},
		AuthorityKey:        tdscrypto.DeriveKey(tdscrypto.Key{}, "authority"),
		MasterKey:           tdscrypto.DeriveKey(tdscrypto.Key{}, "master"),
		AvailableFraction:   o.available,
		AuditReplicas:       o.audit,
		CompromisedFraction: o.compromised,
		Seed:                o.seed,
	})
	if err != nil {
		return err
	}
	if err := eng.ProvisionFleet(o.fleet, w.HouseholdDB); err != nil {
		return err
	}
	cred := eng.Authority().Issue("distribution-co", []string{"energy-analyst", "auditor"},
		time.Unix(1700000000, 0).Add(365*24*time.Hour))
	q, err := querier.New("distribution-co", eng.K1(), cred, eng.Schema())
	if err != nil {
		return err
	}

	plan, err := o.faultPlan()
	if err != nil {
		return err
	}
	fmt.Printf("fleet=%d protocol=%v available=%.0f%%\n", o.fleet, kind, o.available*100)
	if plan != nil {
		fmt.Printf("churn: offline=%.0f%% drop=%.0f%% corrupt=%.0f%% slow=%.0f%% crash=%.0f%% (fault seed %d)\n",
			plan.OfflineFraction*100, plan.DropFraction*100, plan.CorruptFraction*100,
			plan.SlowFraction*100, plan.CrashFraction*100, plan.Seed)
		if plan.SSI != nil {
			fmt.Printf("SSI adversary: %v (persistent=%v)\n", plan.SSI.Behaviors, plan.SSI.Persistent)
		}
		if rot := plan.Rotation; rot != nil {
			fmt.Printf("live rotation: after %d deposits, %d waves (one per %d further commits), revoking %d device(s)\n",
				rot.AfterDeposits, rot.Waves, rot.WaveEvery, len(rot.Revoke))
		}
	}
	fmt.Println("query:", o.query)

	ctx := context.Background()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}

	if o.concurrent > 1 {
		return runConcurrent(ctx, o, eng, q, kind, plan)
	}

	start := time.Now()
	resp, err := eng.Execute(ctx, core.Request{
		Querier:    q,
		SQL:        o.query,
		Kind:       kind,
		Params:     protocol.Params{Nf: o.nf, NumBuckets: o.buckets},
		Faults:     plan,
		SkipVerify: !o.verify,
	})
	if err != nil {
		// An abort after execution started still carries metrics, ledger
		// and trace: report the detection before failing, and export the
		// requested artifacts so the abort is auditable.
		if resp != nil {
			printAbort(resp, err)
			if expErr := exportObservability(o, resp); expErr != nil {
				fmt.Fprintln(os.Stderr, "tdsnet:", expErr)
			}
		}
		return err
	}
	res, m := resp.Result, resp.Metrics
	fmt.Printf("\n%s\n", res)
	fmt.Printf("rows: %d (wall clock %v)\n\n", len(res.Rows), time.Since(start).Round(time.Millisecond))
	fmt.Println("simulated metrics (calibrated hardware model):")
	fmt.Printf("  N_t (tuples collected)     %d  (true: %d)\n", m.Nt, m.TrueTuples)
	fmt.Printf("  P_TDS (participations)     %d\n", m.PTDS)
	fmt.Printf("  Load_Q                     %.1f KB\n", float64(m.LoadBytes)/1e3)
	fmt.Printf("  T_Q (agg+filter makespan)  %v\n", m.TQ)
	fmt.Printf("  T_local (mean busy/TDS)    %v\n", m.TLocal)
	fmt.Printf("  reassignments after death  %d\n", m.Reassignments)
	fmt.Printf("  coverage                   %.1f%% (%d of %d eligible TDSs deposited)\n",
		m.CoverageRatio*100, m.DepositedDevices, m.EligibleDevices)
	if plan != nil {
		fmt.Printf("  churn: offline %d, dropped %d, corrupt %d, timeouts %d\n",
			m.OfflineDevices, m.DroppedDeposits, m.CorruptDeposits, m.Timeouts)
		fmt.Printf("  recovery wait (timeouts+backoff)  %v across %d ledger entries\n",
			m.RetryWait, len(m.Ledger))
		if plan.Rotation != nil {
			printRotationReport(eng, m.Ledger)
		}
		printRecoveryReport(m.Ledger)
	}
	if o.audit > 1 {
		fmt.Printf("  audit: replicas outvoted   %d (suspects: %d distinct)\n",
			m.AuditDetections, distinct(m.Suspects))
	}
	fmt.Printf("\nhonest-but-curious SSI ledger:\n")
	fmt.Printf("  tuples seen   %d (tagged: %d)\n", m.Observation.TotalTuples, m.Observation.TaggedTuples)
	fmt.Printf("  distinct tags %d\n", len(m.Observation.TagCounts))
	fmt.Printf("  bytes seen    %.1f KB (all ciphertext)\n", float64(m.Observation.BytesSeen)/1e3)
	printIntegrity(resp.Integrity)
	if resp.Conformance != nil {
		fmt.Printf("\n%s", resp.Conformance)
	}

	return exportObservability(o, resp)
}

// runConcurrent is the -concurrent N mode: the same query N times at
// once through a core.Server over the one fleet — the multi-tenant
// deployment shape, where the SSI serves many queriers and each device
// connection answers every pending querybox. Reports wall-clock
// throughput and the exact simulated-latency quantiles; with fixed seeds
// every per-query simulated metric is identical to a solo run's. The
// exported trace and journal are query cc-0000's, byte-identical to a
// direct run of it: the server writes nothing into a query's record.
func runConcurrent(ctx context.Context, o options, eng *core.Engine,
	q *querier.Querier, kind protocol.Kind, plan *faultplan.Plan) error {
	inflight := o.inflight
	if inflight <= 0 {
		inflight = runtime.GOMAXPROCS(0)
	}
	srv := core.NewServer(eng, core.ServerConfig{
		MaxInFlight: inflight, QueueDepth: o.concurrent})
	defer srv.Close()
	fmt.Printf("multi-tenant: %d queries, %d in flight\n\n", o.concurrent, inflight)

	latencies := make([]float64, o.concurrent)
	errs := make([]error, o.concurrent)
	var first *core.Response
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < o.concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := srv.Submit(ctx, core.Request{
				Querier: q, SQL: o.query, Kind: kind,
				Params:     protocol.Params{Nf: o.nf, NumBuckets: o.buckets},
				QueryID:    fmt.Sprintf("cc-%04d", i),
				Faults:     plan,
				SkipVerify: !o.verify,
			})
			if err != nil {
				errs[i] = err
				return
			}
			latencies[i] = resp.Metrics.TQ.Seconds() * 1e3
			if i == 0 {
				first = resp
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("query cc-%04d: %w", i, err)
		}
	}
	fmt.Printf("rows per query     %d\n", len(first.Result.Rows))
	fmt.Printf("wall clock         %v (%.1f queries/sec)\n",
		wall.Round(time.Millisecond), float64(o.concurrent)/wall.Seconds())
	fmt.Printf("simulated latency  p50 %.2fms  p99 %.2fms (T_Q per query)\n",
		obs.Quantile(latencies, 0.50), obs.Quantile(latencies, 0.99))
	fmt.Printf("completed          %d queries\n", o.concurrent)
	return exportObservability(o, first)
}

// printIntegrity renders the verified-execution report, or notes that
// verification was off.
func printIntegrity(rep *core.IntegrityReport) {
	if rep == nil {
		fmt.Printf("\nverified execution: off (-verify=false)\n")
		return
	}
	fmt.Printf("\nverified execution:\n")
	fmt.Printf("  checks        %d (%d deposit commitments, %d partition builds)\n",
		rep.Checks, rep.Deposits, rep.Phases)
	fmt.Printf("  violations    %d (quarantined %d, recovered %d)\n",
		rep.Violations, rep.Quarantines, rep.Recovered)
	fmt.Printf("  run digest    %x\n", rep.Digest)
}

// printAbort reports a run that failed after execution started: the typed
// error, the detection account, and the ledger tail that explains it.
func printAbort(resp *core.Response, err error) {
	fmt.Printf("\nquery aborted: %v\n", err)
	if m := resp.Metrics; m != nil {
		fmt.Printf("  coverage at abort  %.1f%% (%d of %d eligible TDSs deposited)\n",
			m.CoverageRatio*100, m.DepositedDevices, m.EligibleDevices)
		printRecoveryReport(m.Ledger)
	}
	printIntegrity(resp.Integrity)
}

// printRotationReport summarizes the live-rotation account of one run:
// how far the staged rollout got, how many stale-epoch deposits the grace
// machinery had to absorb, and which devices stayed expelled.
func printRotationReport(eng *core.Engine, ledger []ssi.LedgerEntry) {
	var begun, waves, stale, revokedDeps int
	for _, le := range ledger {
		switch le.Kind {
		case "rotation-begin":
			begun++
		case "rotation-wave":
			waves++
		case "deposit-retry":
			stale++
		case "deposit-revoked":
			revokedDeps++
		}
	}
	fmt.Printf("  rotation: begun %d, waves applied %d, stale deposits retried %d, revoked deposits rejected %d\n",
		begun, waves, stale, revokedDeps)
	if revoked := eng.RevokedDevices(); len(revoked) > 0 {
		fmt.Printf("  revoked devices: %s\n", strings.Join(revoked, ", "))
	}
}

// maxLedgerLines bounds the recovery report; churned thousand-device
// fleets produce more entries than a terminal wants to scroll.
const maxLedgerLines = 12

// printRecoveryReport lists the ledger entries with their simulated
// offsets from the query's origin, so recovery timing is auditable at a
// glance.
func printRecoveryReport(ledger []ssi.LedgerEntry) {
	if len(ledger) == 0 {
		return
	}
	fmt.Println("  recovery ledger (simulated offsets):")
	n := len(ledger)
	if n > maxLedgerLines {
		n = maxLedgerLines
	}
	for _, le := range ledger[:n] {
		off := le.At.Sub(obs.SimOrigin())
		fmt.Printf("    +%-12v %-20s %-12s device=%s attempt=%d wait=%v\n",
			off, le.Kind, le.Phase, le.Device, le.Attempt, le.Wait)
	}
	if len(ledger) > n {
		fmt.Printf("    … and %d more entries\n", len(ledger)-n)
	}
}

// exportObservability writes the trace and journal artifacts the flags
// requested.
func exportObservability(o options, resp *core.Response) error {
	if o.traceSummary && resp.Trace != nil {
		fmt.Printf("\nquery trace (simulated clock):\n%s", resp.Trace.Summary())
	}
	if o.traceOut != "" {
		if resp.Trace == nil {
			return fmt.Errorf("no trace to write to %s", o.traceOut)
		}
		f, err := os.Create(o.traceOut)
		if err != nil {
			return err
		}
		if err := resp.Trace.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace: wrote %s\n", o.traceOut)
	}
	if o.journalOut != "" {
		if resp.Journal == nil {
			return fmt.Errorf("no journal to write to %s", o.journalOut)
		}
		f, err := os.Create(o.journalOut)
		if err != nil {
			return err
		}
		if err := resp.Journal.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("journal: wrote %s\n", o.journalOut)
	}
	return nil
}
