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

// TestServerQueuedCancelJournalNoLeak: a request withdrawn while queued
// leaves no journal stream behind and frees its QueryID, so the same
// pinned query submitted again is queued, runs, and returns the journal
// of its direct run.
func TestServerQueuedCancelJournalNoLeak(t *testing.T) {
	gate := newGatedSSI()
	f := newFixture(t, 8, func(c *Config) { c.SSI = gate })
	srv := NewServer(f.eng, ServerConfig{MaxInFlight: 1})
	defer srv.Close()
	defer gate.release()

	blocker := submitAsync(context.Background(), srv, Request{Querier: f.q, SQL: countSQL, Kind: protocol.KindSAgg})
	waitStats(t, srv, 1, 0)
	req := Request{Querier: f.q, SQL: countSQL, Kind: protocol.KindSAgg, QueryID: "withdrawn"}
	ctx, cancel := context.WithCancel(context.Background())
	withdrawn := submitAsync(ctx, srv, req)
	waitStats(t, srv, 1, 1)
	cancel()
	if err := <-withdrawn; !errors.Is(err, ErrQueryTimeout) {
		t.Fatalf("withdrawn query: err = %v, want ErrQueryTimeout", err)
	}
	if f.eng.obs.journal.Take("withdrawn") != nil {
		t.Error("a request withdrawn from the queue left a journal stream")
	}

	again := make(chan *Response, 1)
	go func() {
		resp, err := srv.Submit(context.Background(), req)
		if err != nil {
			t.Errorf("resubmitted query: %v", err)
		}
		again <- resp
	}()
	waitStats(t, srv, 1, 1) // queued, not rejected as a duplicate
	gate.release()
	if err := <-blocker; err != nil {
		t.Errorf("in-flight request failed: %v", err)
	}
	resp := <-again
	direct := newFixture(t, 8, nil)
	want, err := direct.eng.Execute(context.Background(), Request{
		Querier: direct.q, SQL: countSQL, Kind: protocol.KindSAgg, QueryID: "withdrawn"})
	if err != nil || resp == nil || !bytes.Equal(resp.Journal.Bytes(), want.Journal.Bytes()) {
		t.Fatalf("the resubmitted run's journal is not the direct run's (%v)", err)
	}
}

// TestMixedTenantRegistryAndJournal drives two tenants through one
// Server and validates the full observable surface: the complete
// Prometheus rendering passes the text-format checker (querier-labelled
// families included, each tenant's latency histogram among them), and
// every response's journal is schema-valid.
func TestMixedTenantRegistryAndJournal(t *testing.T) {
	f := newFixture(t, 8, nil)
	srv := NewServer(f.eng, ServerConfig{MaxInFlight: 2, QueueDepth: 8})
	defer srv.Close()

	expiry := time.Unix(1700000000, 0).Add(365 * 24 * time.Hour)
	cred := f.eng.Authority().Issue("engie", []string{"energy-analyst"}, expiry)
	other, err := querier.New("engie", f.eng.K1(), cred, f.eng.Schema())
	noErr(t, err)

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		for _, q := range []*querier.Querier{f.q, other} {
			wg.Add(1)
			rq := Request{Querier: q, SQL: countSQL, Kind: protocol.KindSAgg}
			go func() {
				defer wg.Done()
				resp, err := srv.Submit(context.Background(), rq)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if err := obs.CheckJournal(bytes.NewReader(resp.Journal.Bytes())); err != nil {
					t.Errorf("journal %s fails schema check: %v", resp.Journal.QueryID, err)
				}
			}()
		}
	}
	wg.Wait()

	var text bytes.Buffer
	noErr(t, f.eng.Registry().WriteText(&text))
	if err := obs.CheckText(bytes.NewReader(text.Bytes())); err != nil {
		t.Fatalf("registry text fails promcheck: %v", err)
	}
	for _, want := range []string{
		`tcq_server_admitted_total{querier="edf"} 3`,
		`tcq_server_admitted_total{querier="engie"} 3`,
		`tcq_server_completed_total{outcome="ok",querier="edf"} 3`,
		`tcq_server_completed_total{outcome="ok",querier="engie"} 3`,
		`tcq_server_query_seconds_count{querier="edf"} 3`,
		`tcq_server_query_seconds_count{querier="engie"} 3`,
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("registry missing %q", want)
		}
	}
}

// TestJournalFleetByteBudget holds the fleet-scale line: at 100k packed
// devices the collection run traces every device, at a bounded cost per
// device, while the journal stays a handful of per-phase events.
func TestJournalFleetByteBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-device provisioning is too heavy for -short")
	}
	const fleet = 100_000
	eng := newTestEngine(t, fleet, nil, nil)
	resp, err := eng.Execute(context.Background(), Request{
		Querier: newQuerierForEngine(t, eng, "edf"), SQL: countSQL, Kind: protocol.KindSAgg, CollectOnly: true,
	})
	noErr(t, err)
	jb := resp.Journal.Bytes()
	if err := obs.CheckJournal(bytes.NewReader(jb)); err != nil {
		t.Fatalf("fleet journal fails schema check: %v", err)
	}
	var tb bytes.Buffer
	noErr(t, resp.Trace.WriteJSONL(&tb))
	// One deposit event per device, ~122 B each; the journal is a handful
	// of phase events regardless of fleet size.
	const traceBudget, journalBudget = 160 * fleet, 8 << 10
	if tb.Len() > traceBudget {
		t.Errorf("trace = %d bytes (%d B/device), budget %d", tb.Len(), tb.Len()/fleet, traceBudget)
	}
	if len(jb) > journalBudget {
		t.Errorf("journal = %d bytes, budget %d", len(jb), journalBudget)
	}
	if bytes.Contains(tb.Bytes(), []byte("collect-rollup-")) {
		t.Error("fleet trace has a rollup span")
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
// ratios run 0.72 (S_Agg) to 2.14 (Basic), so [0.25, 5] flags a real
// drift between the engine's simulated accounting and the closed forms
// without pinning the approximation error itself. The noise protocols'
// Load_Q, fed the run's own N_t and G, must land within [0.8, 1.25] of
// the model (1.04 to 1.11 today), and G must not count audit replicas.
//
// Across protocols, measured and predicted Load_Q must both order
// S_Agg < ED_Hist < R2_Noise < C_Noise (fakes cost bytes), one subtest
// each: the model's ordering only licenses extrapolation if runs share it.
func TestCostModelConformance(t *testing.T) {
	reports := map[string]*ConformanceReport{}
	for _, sc := range conformanceSpecs {
		t.Run(sc.name, func(t *testing.T) {
			f := newFixture(t, 40, nil)
			resp, err := f.eng.Execute(context.Background(), Request{
				Querier: f.q, SQL: sc.sql, Kind: sc.kind, Params: sc.params,
			})
			noErr(t, err)
			rep := resp.Conformance
			if rep == nil {
				t.Fatal("no conformance report on a covered protocol")
			}
			if rep.Protocol != sc.name {
				t.Errorf("protocol = %q, want %q", rep.Protocol, sc.name)
			}
			if rep.PredictedTQ <= 0 || rep.MeasuredTQ <= 0 || rep.PredictedLoadQ <= 0 || rep.MeasuredLoadQ <= 0 {
				t.Fatalf("degenerate report: %+v", rep)
			}
			reports[sc.name] = rep
			t.Logf("\n%s", rep)
			if rep.Ratio < 0.25 || rep.Ratio > 5 {
				t.Errorf("ratio %.3f outside [0.25, 5]: engine accounting and cost model diverged\n%s",
					rep.Ratio, rep)
			}
			if l := float64(rep.MeasuredLoadQ) / rep.PredictedLoadQ; strings.HasSuffix(sc.name, "Noise") && (l < 0.8 || l > 1.25) {
				t.Errorf("Load_Q measured/predicted %.3f outside [0.8, 1.25]", l)
			}
			audited := newFixture(t, 40, func(c *Config) { c.AuditReplicas = 3 })
			_, am, err := runQuery(audited.eng, audited.q, sc.sql, sc.kind, sc.params)
			if noErr(t, err); am.Groups != resp.Metrics.Groups {
				t.Errorf("G = %d at AuditReplicas 3, %d at 1", am.Groups, resp.Metrics.Groups)
			}
			if len(rep.Phases) == 0 {
				t.Error("report has no phase breakdown")
			}
			// The ratio also lands on the root span for ops tooling.
			var tb bytes.Buffer
			noErr(t, resp.Trace.WriteJSONL(&tb))
			if !bytes.Contains(tb.Bytes(), []byte(`"tq_ratio"`)) {
				t.Error("root span is missing the tq_ratio attribute")
			}
		})
	}
	if len(reports) != len(conformanceSpecs) {
		return // a -run filter or a failed spec: nothing to order
	}
	order := []string{"S_Agg", "ED_Hist", "R2_Noise", "C_Noise"}
	loadQ := map[string]func(*ConformanceReport) float64{
		"MeasuredLoadQOrder":  func(r *ConformanceReport) float64 { return float64(r.MeasuredLoadQ) },
		"PredictedLoadQOrder": func(r *ConformanceReport) float64 { return r.PredictedLoadQ },
	}
	for name, load := range loadQ {
		t.Run(name, func(t *testing.T) {
			for i := 1; i < len(order); i++ {
				if lo, hi := reports[order[i-1]], reports[order[i]]; load(lo) >= load(hi) {
					t.Errorf("%s %.0f >= %s %.0f", lo.Protocol, load(lo), hi.Protocol, load(hi))
				}
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
	noErr(t, err)
	if resp.Conformance != nil {
		t.Errorf("collect-only produced a report: %+v", resp.Conformance)
	}
}
