package core

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

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
		"reassign": true,
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

// TestRunAccountsAfterRuns drives one engine through churned runs, a
// coverage-floor abort, a misbehaviour abort, a run cancelled inside its
// first phase after a crash, a collect-only run and a run whose rotation
// revokes devices that keep depositing, and holds each run's record to
// itself: the device accounts close, the recovery counters are the
// ledger's, the journal is schema-valid and mirrors every ledger entry,
// an abort's journal ends in its reason, and the trace's deposit events
// carry every accepted tuple and byte.
func TestRunAccountsAfterRuns(t *testing.T) {
	// One collection worker fixes the walk's context checks, so the fuse
	// trips at the same point of the first phase at any GOMAXPROCS.
	f := newFixture(t, 40, func(c *Config) { c.CollectWorkers = 1 })
	basic, sagg := churnScenarios[0], churnScenarios[1]
	drop := &faultplan.SSIScript{Persistent: true, Behaviors: []faultplan.SSIMisbehavior{faultplan.SSIDropTuple}}
	revoke := &faultplan.RotationScript{AfterDeposits: 3, Waves: 2, RevokedDeposits: true,
		Revoke: []string{slotID(5), slotID(15), slotID(25), slotID(35)}}
	for _, run := range []struct {
		name  string
		req   Request
		fuse  int    // context checks before a cancellation; 0 for none
		abort string // the abort's reason; "" for a run that completes
	}{
		{"churned-basic", Request{SQL: basic.sql, Kind: basic.kind, Faults: churnPlan()}, 0, ""},
		{"churned-s_agg", Request{SQL: sagg.sql, Kind: sagg.kind, Params: sagg.params, Faults: churnPlan()}, 0, ""},
		{"floor-abort", Request{SQL: sagg.sql, Kind: sagg.kind,
			Faults: &faultplan.Plan{Seed: 2, OfflineFraction: 0.9, CoverageFloor: 0.5}}, 0, "coverage-floor"},
		{"misbehaviour-abort", Request{SQL: sagg.sql, Kind: sagg.kind, Params: sagg.params,
			Faults: &faultplan.Plan{Seed: 21, SSI: drop}}, 0, "ssi-misbehavior"},
		{"mid-phase-abort", Request{SQL: sagg.sql, Kind: sagg.kind, Params: sagg.params,
			Faults: &faultplan.Plan{Seed: 21, CrashFraction: 0.3}}, 9, "timeout"},
		{"collect-only", Request{SQL: sagg.sql, Kind: sagg.kind, CollectOnly: true, Faults: churnPlan()}, 0, ""},
		// Last: the rotation re-keys the fleet the runs above share.
		{"revoked-deposits", Request{SQL: basic.sql, Kind: basic.kind,
			Faults: &faultplan.Plan{Rotation: revoke}}, 0, ""},
	} {
		t.Run(run.name, func(t *testing.T) {
			var ctx context.Context = context.Background()
			if run.fuse > 0 {
				ctx = &fuseCtx{Context: ctx, fuse: run.fuse}
			}
			run.req.Querier = f.q
			resp, err := f.eng.Execute(ctx, run.req)
			if (err != nil) != (run.abort != "") || resp == nil {
				t.Fatal(err)
			}
			m := resp.Metrics
			assertDeviceAccounts(t, m, false)
			if run.req.Faults.Rotation != nil && ledgerCount(m, "deposit-revoked") == 0 {
				t.Error("no revoked device's deposit reached the SSI's revocation gate")
			}

			var wait time.Duration
			for _, le := range m.Ledger {
				wait += le.Wait
			}
			if m.Reassignments != ledgerCount(m, "reassign") || m.Timeouts != m.DroppedDeposits+m.Reassignments ||
				m.RetryWait != wait || m.IntegrityQuarantines != ledgerCount(m, "integrity-quarantine") ||
				m.IntegrityRecovered != ledgerCount(m, "integrity-recovered") {
				t.Errorf("recovery counters disagree with the ledger: %d reassignments, %d timeouts, "+
					"%v retry wait, %d quarantines, %d recovered; ledger %+v", m.Reassignments, m.Timeouts,
					m.RetryWait, m.IntegrityQuarantines, m.IntegrityRecovered, m.Ledger)
			}
			if m.CoverageRatio != float64(m.DepositedDevices)/float64(m.EligibleDevices) {
				t.Errorf("coverage %v is not %d deposited / %d eligible",
					m.CoverageRatio, m.DepositedDevices, m.EligibleDevices)
			}

			if err := obs.CheckJournal(bytes.NewReader(resp.Journal.Bytes())); err != nil {
				t.Fatalf("journal fails the schema check: %v", err)
			}
			if n := resp.Journal.Counts()[obs.JournalLedger]; n != len(m.Ledger) {
				t.Errorf("%d ledger records in the journal, %d entries on the ledger", n, len(m.Ledger))
			}
			if run.abort != "" {
				assertAbortJournal(t, resp, run.abort)
			}

			var tuples, sent int64
			resp.Trace.Walk(func(s *obs.Span) {
				for _, ev := range s.Events {
					if ev.Name == "deposit" {
						tuples += int64(ev.Facts.Tuples)
						sent += ev.Facts.Bytes
					}
				}
			})
			if tuples != m.Nt || sent != m.CollectBytes {
				t.Errorf("the trace's deposits carry %d tuples, %d bytes; the run accepted %d, %d",
					tuples, sent, m.Nt, m.CollectBytes)
			}
		})
	}
}
