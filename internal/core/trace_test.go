package core

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"

	"github.com/trustedcells/tcq/internal/faultplan"
	"github.com/trustedcells/tcq/internal/obs"
)

// churnedTrace runs one churned scenario at the given worker count and
// returns the full response (result, metrics, trace).
func churnedTrace(t *testing.T, sc int, workers int) *Response {
	t.Helper()
	f := newFixture(t, 40, func(c *Config) { c.CollectWorkers = workers })
	resp, err := f.eng.Execute(context.Background(), Request{
		Querier: f.q, SQL: churnScenarios[sc].sql, Kind: churnScenarios[sc].kind,
		Params: churnScenarios[sc].params, Faults: churnPlan(),
	})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	if resp.Trace == nil {
		t.Fatalf("workers=%d: Execute returned no trace", workers)
	}
	return resp
}

func traceJSONL(t *testing.T, qt *obs.QueryTrace) []byte {
	t.Helper()
	var buf bytes.Buffer
	noErr(t, qt.WriteJSONL(&buf))
	return buf.Bytes()
}

// TestGoldenTraceDeterminism: for every protocol under the reference
// churn plan, the serialized trace must be byte-identical at
// CollectWorkers 1 and 8 —
// same spans, same events, same simulated timestamps, same order. The
// trace must also be complete: every timed phase has a span and every
// recovery-ledger entry has a matching trace event.
func TestGoldenTraceDeterminism(t *testing.T) {
	for i, sc := range churnScenarios {
		t.Run(sc.kind.String(), func(t *testing.T) {
			seq := churnedTrace(t, i, 1)
			par := churnedTrace(t, i, 8)
			seqJSON, parJSON := traceJSONL(t, seq.Trace), traceJSONL(t, par.Trace)
			if !bytes.Equal(seqJSON, parJSON) {
				t.Errorf("traces diverge across worker counts:\nworkers=1:\n%s\nworkers=8:\n%s",
					seqJSON, parJSON)
			}

			// Completeness: every phase the metrics timed has a span.
			spans := map[string]int{}
			seq.Trace.Walk(func(s *obs.Span) { spans[s.Name]++ })
			for _, ph := range seq.Metrics.Phases {
				if spans[ph.Name] == 0 {
					t.Errorf("phase %q timed in metrics but has no span", ph.Name)
				}
			}
			for _, name := range []string{"execute", "collect", "deliver"} {
				if spans[name] == 0 {
					t.Errorf("no %q span in trace", name)
				}
			}

			// Completeness: every ledger entry surfaced as a trace event with
			// the same kind and device.
			type evKey struct{ name, device string }
			events := map[evKey]int{}
			seq.Trace.Walk(func(s *obs.Span) {
				for _, e := range s.Events {
					events[evKey{e.Name, e.Device}]++
				}
			})
			for _, le := range seq.Metrics.Ledger {
				k := evKey{le.Kind, le.Device}
				if events[k] == 0 {
					t.Errorf("ledger entry %+v has no matching trace event", le)
					continue
				}
				events[k]--
			}
		})
	}
}

// TestSSIVisibilityAudit is the observability counterpart of the paper's
// honest-but-curious threat model: everything traced on the SSI side of
// the boundary must be limited to ciphertext facts — sizes, counts,
// attempts, simulated timings — never query constants or plaintext
// values. The guard is structural (SSI events carry only CipherFacts and
// SSI spans refuse attributes), and this test audits the rendered output.
func TestSSIVisibilityAudit(t *testing.T) {
	// The allowlist of event names the SSI side may emit. Names describe
	// protocol machinery, never data.
	ssiEvents := map[string]bool{
		"deposit": true, "relay": true, "partition": true,
		"deposit-timeout": true, "deposit-stale": true, "deposit-corrupt": true,
		"reassign": true, "partition-abandoned": true,
	}
	for i, sc := range churnScenarios {
		t.Run(sc.kind.String(), func(t *testing.T) {
			resp := churnedTrace(t, i, 4)
			resp.Trace.Walk(func(s *obs.Span) {
				if s.Party == obs.PartySSI && len(s.Attrs) > 0 {
					t.Errorf("SSI span %q carries attributes %v; must be ciphertext-only", s.Name, s.Attrs)
				}
				for _, e := range s.Events {
					if e.Party == obs.PartySSI && !ssiEvents[e.Name] {
						t.Errorf("SSI event %q not in the ciphertext-facts allowlist", e.Name)
					}
				}
			})
			// The rendered JSONL must not leak the fixture's plaintext
			// domain: district names travel only inside encrypted tuples.
			out := string(traceJSONL(t, resp.Trace))
			for _, sentinel := range districts {
				if strings.Contains(out, sentinel) {
					t.Errorf("trace JSONL leaks plaintext value %q", sentinel)
				}
			}
			if strings.Contains(out, "detached house") {
				t.Error("trace JSONL leaks a query constant")
			}
		})
	}
}

// TestRegistryExportAfterRuns renders the engine's metrics registry after
// churned runs, a coverage-floor abort, a misbehaviour abort, a run
// cancelled inside its first phase after a crash, and a collect-only run,
// and requires well-formed Prometheus text, every series fed from Metrics
// equal to its sum over the returned Responses, and no labelled counter at
// 0. A run's recovery counters are its ledger's, so the cancelled run's
// crash counts although its phase never completed.
func TestRegistryExportAfterRuns(t *testing.T) {
	// One collection worker fixes the walk's context checks, so the fuse
	// trips at the same point of the first phase at any GOMAXPROCS.
	f := newFixture(t, 40, func(c *Config) { c.CollectWorkers = 1 })
	basic, sagg := churnScenarios[0], churnScenarios[1]
	drop := &faultplan.SSIScript{Persistent: true, Behaviors: []faultplan.SSIMisbehavior{faultplan.SSIDropTuple}}
	want := map[string]float64{}
	for _, run := range []struct {
		name string // an abort's name ends in "abort"
		req  Request
		fuse int // context checks before a cancellation; 0 for none
	}{
		{"churned-basic", Request{SQL: basic.sql, Kind: basic.kind, Faults: churnPlan()}, 0},
		{"churned-s_agg", Request{SQL: sagg.sql, Kind: sagg.kind, Params: sagg.params, Faults: churnPlan()}, 0},
		{"floor-abort", Request{SQL: sagg.sql, Kind: sagg.kind,
			Faults: &faultplan.Plan{Seed: 2, OfflineFraction: 0.9, CoverageFloor: 0.5}}, 0},
		{"misbehaviour-abort", Request{SQL: sagg.sql, Kind: sagg.kind, Params: sagg.params,
			Faults: &faultplan.Plan{Seed: 21, SSI: drop}}, 0},
		{"mid-phase-abort", Request{SQL: sagg.sql, Kind: sagg.kind, Params: sagg.params,
			Faults: &faultplan.Plan{Seed: 21, CrashFraction: 0.3}}, 9},
		{"collect-only", Request{SQL: sagg.sql, Kind: sagg.kind, CollectOnly: true, Faults: churnPlan()}, 0},
	} {
		t.Run(run.name, func(t *testing.T) {
			var ctx context.Context = context.Background()
			if run.fuse > 0 {
				ctx = &fuseCtx{Context: ctx, fuse: run.fuse}
			}
			run.req.Querier = f.q
			resp, err := f.eng.Execute(ctx, run.req)
			if (err != nil) != strings.HasSuffix(run.name, "abort") || resp == nil {
				t.Fatal(err)
			}
			if m := resp.Metrics; run.fuse > 0 && (len(m.Phases) > 0 || m.Reassignments == 0) {
				t.Fatalf("the cancellation missed the first phase's crashes: %+v", m)
			}
			m := resp.Metrics
			for family, byLabel := range map[string]map[string]int{
				`tcq_collect_devices_total{outcome=`: {"accepted": m.DepositedDevices, "offline": m.OfflineDevices,
					"error": m.CollectErrors, "dropped": m.DroppedDeposits, "corrupt": m.CorruptDeposits,
					"stale": ledgerCount(m, "deposit-stale"), "revoked": ledgerCount(m, "deposit-revoked")},
				`tcq_collect_tuples_total{kind=`: {"accepted": int(m.Nt), "true": int(m.TrueTuples)},
				`tcq_integrity_events_total{kind=`: {"check": m.IntegrityChecks, "violation": m.IntegrityViolations,
					"quarantine": m.IntegrityQuarantines, "recovered": m.IntegrityRecovered},
				`tcq_bytes_total{flow=`: {"collect_up": int(m.CollectBytes)},
			} {
				for label, n := range byLabel {
					want[family+strconv.Quote(label)+"}"] += float64(n)
				}
			}
			want[`tcq_queries_total{protocol="`+run.req.Kind.String()+`"}`]++
			want["tcq_deposit_tuples_sum"] += float64(m.Nt)
			want["tcq_coverage_ratio"] = m.CoverageRatio // the last run's collection completes
			want["tcq_retry_wait_seconds_total"] += m.RetryWait.Seconds()
			want["tcq_reassignments_total"] += float64(m.Reassignments)
			want["tcq_partitions_abandoned_total"] += float64(m.PartitionsAbandoned)
			for _, p := range m.Phases {
				want[`tcq_phase_seconds_count{phase="`+phaseLabel(p.Name)+`"}`]++
				want[`tcq_phase_seconds_sum{phase="`+phaseLabel(p.Name)+`"}`] += p.Duration.Seconds()
			}
		})
	}
	var buf bytes.Buffer
	noErr(t, f.eng.Registry().WriteText(&buf))
	if err := obs.CheckText(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("registry text fails the checker: %v\n%s", err, buf.String())
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		series, v, _ := strings.Cut(line, " ")
		if strings.Contains(series, "{") && !strings.Contains(series, "le=") && v == "0" {
			t.Errorf("labelled series %s renders 0", series)
		}
		if n, ok := want[series]; ok {
			if x, err := strconv.ParseFloat(v, 64); err != nil || x != n {
				t.Errorf("%s renders %s, want %v (summed over the Responses)", series, v, n)
			}
			delete(want, series)
		}
	}
	for series, n := range want {
		if n != 0 || !strings.Contains(series, "{") {
			t.Errorf("registry text has no %s", series)
		}
	}
}
