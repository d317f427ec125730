package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/trustedcells/tcq/internal/obs"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/querier"
)

// TestJournalServerPrologue: a query routed through the Server carries
// the scheduler's admission and dispatch events ahead of the engine's
// own stream, and the whole journal still passes the schema check.
func TestJournalServerPrologue(t *testing.T) {
	f := newFixture(t, 8, nil)
	srv := NewServer(f.eng, ServerConfig{MaxInFlight: 1, QueueDepth: 1})
	defer srv.Close()
	resp, err := srv.Submit(context.Background(), Request{
		Querier: f.q, SQL: countSQL, Kind: protocol.KindSAgg, QueryID: "prologue",
	})
	if err != nil {
		t.Fatal(err)
	}
	if srv.TraceFor("prologue") == nil {
		t.Error("server did not retain the finished trace")
	}
	if srv.TraceFor("never-ran") != nil {
		t.Error("TraceFor invented a trace for an unknown ID")
	}
	b := resp.Journal.Bytes()
	if err := obs.CheckJournal(bytes.NewReader(b)); err != nil {
		t.Fatalf("server journal fails schema check: %v\n%s", err, b)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) < 3 ||
		!strings.Contains(lines[0], `"kind":"admission"`) ||
		!strings.Contains(lines[1], `"kind":"dispatch"`) {
		t.Fatalf("journal does not open with admission+dispatch:\n%s", b)
	}
	if !strings.Contains(lines[0], `"detail":"edf"`) {
		t.Errorf("admission event does not carry the querier: %s", lines[0])
	}
}

// TestTraceForNewestRetained: a query ID may be reused once its run is
// done, so once the retention ring has wrapped, TraceFor must return the
// newest run's trace, not an older one further along the slice.
func TestTraceForNewestRetained(t *testing.T) {
	srv := &Server{}
	old, fresh := &obs.QueryTrace{}, &obs.QueryTrace{}
	for i := 0; i < serverRetain; i++ {
		id, tr := fmt.Sprintf("q%d", i), &obs.QueryTrace{}
		if i == 10 {
			id, tr = "x", old
		}
		srv.retainLocked(id, tr, nil)
	}
	srv.retainLocked("x", fresh, nil) // wraps onto slot 0
	if srv.TraceFor("x") != fresh {
		t.Error("TraceFor returned an older run's trace for a reused query ID")
	}
}

// abortJournal asserts the shape every failed run must leave behind: a
// schema-valid journal whose terminal event is an abort with the given
// reason.
func assertAbortJournal(t *testing.T, resp *Response, reason string) {
	t.Helper()
	if resp == nil || resp.Journal == nil {
		t.Fatal("aborted run returned no journal")
	}
	b := resp.Journal.Bytes()
	if err := obs.CheckJournal(bytes.NewReader(b)); err != nil {
		t.Fatalf("abort journal fails schema check: %v\n%s", err, b)
	}
	want := fmt.Sprintf(`"kind":"abort","party":"engine","detail":%q`, reason)
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if last := lines[len(lines)-1]; !strings.Contains(last, want) {
		t.Errorf("journal does not end in abort(%s):\n%s", reason, last)
	}
}

// TestAbortTimeoutJournal: cancellation mid-collection leaves an
// abort-terminated journal, possibly with the collect phase still open —
// exactly what the schema checker permits for aborts.
func TestAbortTimeoutJournal(t *testing.T) {
	f := newFixture(t, 20, func(c *Config) { c.CollectWorkers = 1 })
	ctx := &fuseCtx{Context: context.Background(), fuse: 3}
	resp, err := f.eng.Execute(ctx, Request{
		Querier: f.q, SQL: flagshipSQL, Kind: protocol.KindSAgg,
		Params: protocol.Params{PartitionTuples: 4},
	})
	if !errors.Is(err, ErrQueryTimeout) {
		t.Fatalf("err = %v, want ErrQueryTimeout", err)
	}
	assertAbortJournal(t, resp, "timeout")
	assertRegistryHas(t, f.eng, `tcq_journal_open_streams 0`)
}

// TestServerQueuedCancelJournalNoLeak is the withdrawn-query lifecycle
// gate: a request cancelled while still queued must not leave an open
// journal stream behind, and Close must settle whatever remains.
func TestServerQueuedCancelJournalNoLeak(t *testing.T) {
	gate := newGatedSSI()
	f := newFixture(t, 8, func(c *Config) { c.SSI = gate })
	srv := NewServer(f.eng, ServerConfig{MaxInFlight: 1, QueueDepth: 4})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Submit(context.Background(), Request{
			Querier: f.q, SQL: countSQL, Kind: protocol.KindSAgg, QueryID: "blocker",
		})
	}()
	waitStats(t, srv, 1, 0)

	ctx, cancel := context.WithCancel(context.Background())
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := srv.Submit(ctx, Request{
			Querier: f.q, SQL: countSQL, Kind: protocol.KindSAgg, QueryID: "withdrawn",
		})
		if !errors.Is(err, ErrQueryTimeout) {
			t.Errorf("withdrawn query: err = %v, want ErrQueryTimeout", err)
		}
	}()
	waitStats(t, srv, 1, 1)
	cancel() // withdraw while queued: the journal stream must be discarded

	gate.release()
	wg.Wait()
	srv.Close()
	if n := f.eng.obs.journal.OpenStreams(); n != 0 {
		t.Errorf("open journal streams after Close = %d, want 0", n)
	}
	assertRegistryHas(t, f.eng, `tcq_journal_open_streams 0`)
}

// TestMixedTenantRegistryAndJournal drives two tenants through one
// Server and validates the full observable surface: the complete
// Prometheus rendering passes the text-format checker (querier-labelled
// families included), per-tenant stats are populated, and the retained
// journals are all schema-valid.
func TestMixedTenantRegistryAndJournal(t *testing.T) {
	f := newFixture(t, 8, nil)
	srv := NewServer(f.eng, ServerConfig{MaxInFlight: 2, QueueDepth: 8})
	defer srv.Close()

	expiry := time.Unix(1700000000, 0).Add(365 * 24 * time.Hour)
	cred := f.eng.Authority().Issue("engie", []string{"energy-analyst"}, expiry)
	other, err := querier.New("engie", f.eng.K1(), cred, f.eng.Schema())
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		for _, q := range []*querier.Querier{f.q, other} {
			wg.Add(1)
			rq := Request{Querier: q, SQL: countSQL, Kind: protocol.KindSAgg}
			go func() {
				defer wg.Done()
				if _, err := srv.Submit(context.Background(), rq); err != nil {
					t.Errorf("submit: %v", err)
				}
			}()
		}
	}
	wg.Wait()

	var text bytes.Buffer
	if err := f.eng.Registry().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckText(bytes.NewReader(text.Bytes())); err != nil {
		t.Fatalf("registry text fails promcheck: %v", err)
	}
	for _, want := range []string{
		`tcq_server_admitted_total{querier="edf"} 3`,
		`tcq_server_admitted_total{querier="engie"} 3`,
		`tcq_server_completed_total{outcome="ok",querier="edf"} 3`,
		`tcq_server_completed_total{outcome="ok",querier="engie"} 3`,
		`tcq_journal_open_streams 0`,
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("registry missing %q", want)
		}
	}

	stats := srv.TenantStats()
	if len(stats) != 2 {
		t.Fatalf("TenantStats: %d tenants, want 2", len(stats))
	}
	for _, ts := range stats {
		if ts.Completed != 3 {
			t.Errorf("tenant %s: completed = %d, want 3", ts.Querier, ts.Completed)
		}
		if ts.SimTQP50 <= 0 || ts.SimTQP99 < ts.SimTQP50 {
			t.Errorf("tenant %s: degenerate latency quantiles p50=%v p99=%v",
				ts.Querier, ts.SimTQP50, ts.SimTQP99)
		}
	}

	for _, qj := range srv.RecentJournals(10) {
		if err := obs.CheckJournal(bytes.NewReader(qj.Bytes())); err != nil {
			t.Errorf("retained journal %s fails schema check: %v", qj.QueryID, err)
		}
	}
}

// TestJournalFleetByteBudget holds the fleet-scale line: at 100k packed
// devices with 1% trace sampling, the collection run's trace and journal
// must stay bounded — rollup spans and per-phase journal events, not a
// line per device.
func TestJournalFleetByteBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-device provisioning is too heavy for -short")
	}
	const fleet = 100_000
	eng := newFixtureEngineOnly(t, fleet, true)
	eng.cfg.TraceSampleRate = 0.01
	expiry := time.Unix(1700000000, 0).Add(365 * 24 * time.Hour)
	cred := eng.Authority().Issue("edf", []string{"energy-analyst"}, expiry)
	q, err := querier.New("edf", eng.K1(), cred, eng.Schema())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng.Execute(context.Background(), Request{
		Querier: q, SQL: countSQL, Kind: protocol.KindSAgg, CollectOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	jb := resp.Journal.Bytes()
	if err := obs.CheckJournal(bytes.NewReader(jb)); err != nil {
		t.Fatalf("fleet journal fails schema check: %v", err)
	}
	var tb bytes.Buffer
	if err := resp.Trace.WriteJSONL(&tb); err != nil {
		t.Fatal(err)
	}
	// ~25 rollup spans (100k/4096) plus sampled per-device events at 1%
	// keep the trace around a few hundred KB; an unsampled run would be
	// tens of MB. The journal is a handful of phase events regardless of
	// fleet size.
	const traceBudget, journalBudget = 1 << 20, 8 << 10
	if tb.Len() > traceBudget {
		t.Errorf("trace = %d bytes, budget %d", tb.Len(), traceBudget)
	}
	if len(jb) > journalBudget {
		t.Errorf("journal = %d bytes, budget %d", len(jb), journalBudget)
	}
	if !bytes.Contains(tb.Bytes(), []byte("collect-rollup-")) {
		t.Error("sampled fleet trace has no rollup spans")
	}
}

// conformanceSpecs: one run per protocol the Section 6.1 model covers.
var conformanceSpecs = []struct {
	name   string
	kind   protocol.Kind
	sql    string
	params protocol.Params
}{
	{"Basic", protocol.KindBasic, `SELECT C.cid, C.district FROM Consumer C`, protocol.Params{}},
	{"S_Agg", protocol.KindSAgg, flagshipSQL, protocol.Params{PartitionTuples: 4}},
	{"R0_Noise", protocol.KindRnfNoise, flagshipSQL, protocol.Params{PartitionTuples: 4}}, // n_f unset: Det_Enc, no fakes
	{"R2_Noise", protocol.KindRnfNoise, flagshipSQL, protocol.Params{Nf: 2, PartitionTuples: 4}},
	{"R7_Noise", protocol.KindRnfNoise, flagshipSQL, protocol.Params{Nf: 7, PartitionTuples: 4}},
	{"C_Noise", protocol.KindCNoise, flagshipSQL, protocol.Params{PartitionTuples: 4}},
	{"ED_Hist", protocol.KindEDHist, flagshipSQL, protocol.Params{PartitionTuples: 4}},
}

// TestCostModelConformance checks every covered protocol against the
// analytical cost model at the run's own operating point. The model is a
// closed-form approximation, so the measured/predicted ratio is not 1 —
// but it is deterministic, and it must stay inside a band: today's
// ratios run 0.32 (Rnf_Noise at n_f = 7, an operating point outside
// Fig. 10's two; 0.97 at n_f = 2) to 2.14 (Basic), so [0.25, 5] flags a
// real drift between the engine's simulated accounting and the closed
// forms without pinning the approximation error itself.
func TestCostModelConformance(t *testing.T) {
	for _, sc := range conformanceSpecs {
		t.Run(sc.name, func(t *testing.T) {
			f := newFixture(t, 40, nil)
			resp, err := f.eng.Execute(context.Background(), Request{
				Querier: f.q, SQL: sc.sql, Kind: sc.kind, Params: sc.params,
			})
			if err != nil {
				t.Fatal(err)
			}
			rep := resp.Conformance
			if rep == nil {
				t.Fatal("no conformance report on a covered protocol")
			}
			if rep.Protocol != sc.name {
				t.Errorf("protocol = %q, want %q", rep.Protocol, sc.name)
			}
			if rep.PredictedTQ <= 0 || rep.MeasuredTQ <= 0 {
				t.Fatalf("degenerate report: %+v", rep)
			}
			t.Logf("\n%s", rep)
			if rep.Ratio < 0.25 || rep.Ratio > 5 {
				t.Errorf("ratio %.3f outside [0.25, 5]: engine accounting and cost model diverged\n%s",
					rep.Ratio, rep)
			}
			if len(rep.Phases) == 0 {
				t.Error("report has no phase breakdown")
			}
			// The ratio also lands on the root span for ops tooling.
			var tb bytes.Buffer
			if err := resp.Trace.WriteJSONL(&tb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(tb.Bytes(), []byte(`"tq_ratio"`)) {
				t.Error("root span is missing the tq_ratio attribute")
			}
		})
	}
}

// TestConformanceUncoveredConfigs: a collect-only run has no aggregation
// or filtering phase to compare, so it yields no report. Rnf_Noise with
// n_f left unset is covered: R0_Noise in conformanceSpecs.
func TestConformanceUncoveredConfigs(t *testing.T) {
	f := newFixture(t, 40, nil)
	resp, err := f.eng.Execute(context.Background(), Request{
		Querier: f.q, SQL: countSQL, Kind: protocol.KindSAgg, CollectOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Conformance != nil {
		t.Errorf("collect-only produced a report: %+v", resp.Conformance)
	}
}
