package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/trustedcells/tcq/internal/faultplan"
	"github.com/trustedcells/tcq/internal/obs"
	"github.com/trustedcells/tcq/internal/ssi"
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
	if err := qt.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenTraceDeterminism is the tracing counterpart of
// TestChurnDeterminism: for every protocol under the reference churn plan,
// the serialized trace must be byte-identical at CollectWorkers 1 and 8 —
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

// TestTraceLedgerUniformlyStamped drives every churn path the plan
// scripts, crashes abandoned at the second attempt included, and requires
// every recovery-ledger entry to carry a device ID and a simulated
// timestamp, on every path.
func TestTraceLedgerUniformlyStamped(t *testing.T) {
	f := newFixture(t, 40, nil)
	resp, err := f.eng.Execute(context.Background(), Request{
		Querier: f.q, SQL: flagshipSQL, Kind: churnScenarios[1].kind,
		Params: churnScenarios[1].params,
		Faults: &faultplan.Plan{
			Seed: 21, OfflineFraction: 0.1, DropFraction: 0.1,
			CorruptFraction: 0.1, CrashFraction: 0.3, MaxAttempts: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Metrics.Ledger) == 0 {
		t.Fatal("no ledger entries despite churn")
	}
	kinds := map[string]int{}
	for _, le := range resp.Metrics.Ledger {
		kinds[le.Kind]++
		if le.Device == "" {
			t.Errorf("ledger entry %+v has no device ID", le)
		}
		if le.At.IsZero() {
			t.Errorf("ledger entry %+v has no timestamp", le)
		}
		if le.At.Before(obs.SimOrigin()) {
			t.Errorf("ledger entry %+v stamped before the simulated origin", le)
		}
	}
	if kinds["reassign"] == 0 {
		t.Fatalf("no reassign entries recorded (kinds=%v); the crash path is untested", kinds)
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
// a churned run and requires well-formed Prometheus text: parseable by
// the bundled checker, with the core series present.
func TestRegistryExportAfterRuns(t *testing.T) {
	f := newFixture(t, 40, nil)
	for _, sc := range churnScenarios[:2] {
		_, err := f.eng.Execute(context.Background(), Request{
			Querier: f.q, SQL: sc.sql, Kind: sc.kind, Params: sc.params, Faults: churnPlan(),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := f.eng.Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckText(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("registry text fails the checker: %v\n%s", err, buf.String())
	}
	for _, want := range []string{
		"tcq_queries_total", "tcq_collect_devices_total", "tcq_bytes_total",
		"tcq_coverage_ratio", "tcq_phase_seconds_bucket", "tcq_deposit_tuples_sum",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("registry text missing %q", want)
		}
	}
}

// TestTraceMatchesLedgerTimestamps cross-checks the two audit channels:
// the SSI ledger mirror events in the trace carry the same simulated
// instants as the ledger entries themselves.
func TestTraceMatchesLedgerTimestamps(t *testing.T) {
	resp := churnedTrace(t, 1, 1) // S_Agg under the reference churn plan
	byKind := map[string][]ssi.LedgerEntry{}
	for _, le := range resp.Metrics.Ledger {
		byKind[le.Kind] = append(byKind[le.Kind], le)
	}
	matched := 0
	resp.Trace.Walk(func(s *obs.Span) {
		for _, e := range s.Events {
			entries := byKind[e.Name]
			for j, le := range entries {
				if le.Device == e.Device && le.At.Equal(e.At) {
					byKind[e.Name] = append(entries[:j], entries[j+1:]...)
					matched++
					break
				}
			}
		}
	})
	for kind, rest := range byKind {
		for _, le := range rest {
			t.Errorf("%s ledger entry %+v has no trace event at the same instant", kind, le)
		}
	}
	if matched == 0 {
		t.Fatal("no ledger entries matched any trace event")
	}
}
