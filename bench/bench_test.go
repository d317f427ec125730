package main

import (
	"bytes"
	"context"
	"reflect"
	"regexp"
	"testing"

	"github.com/trustedcells/tcq/internal/ssi"
	"github.com/trustedcells/tcq/internal/storage"
)

func TestPercentileAndSampleRule(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	p50, p90, err := wallPercentiles(samples)
	if err != nil {
		t.Fatal(err)
	}
	if p50 != 50 || p90 != 90 {
		t.Errorf("p50, p90 = %v, %v; want 50, 90", p50, p90)
	}
	if samples[0] != 100 {
		t.Error("wallPercentiles reordered its input")
	}
	if _, _, err := wallPercentiles(samples[:99]); err == nil {
		t.Error("99 samples passed the sample-count rule; a p90 needs 100")
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("percentile of one sample = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestUnionLenIsSelfTimeComplement(t *testing.T) {
	root := interval{0, 40}
	children := []interval{{5, 15}, {0, 10}, {20, 30}, {22, 25}, {30, 30}}
	if got := unionLen(children); got != 25 {
		t.Fatalf("union = %d, want 25 (overlap and nesting counted once)", got)
	}
	if self := root.end - root.start - unionLen(children); self != 15 {
		t.Errorf("self time = %d, want 15", self)
	}
	if got := unionLen(nil); got != 0 {
		t.Errorf("union of nothing = %d", got)
	}
}

func TestSameRows(t *testing.T) {
	row := func(d string, v float64) storage.Row { return storage.Row{storage.Str(d), storage.Float(v)} }
	want := []storage.Row{row("a", 1), row("b", 2), row("b", 2)}
	if err := sameRows([]storage.Row{row("b", 2), row("a", 1+1e-12), row("b", 2)}, want); err != nil {
		t.Errorf("reordered rows within 1e-9 relative: %v", err)
	}
	if err := sameRows([]storage.Row{row("b", 2), row("a", 1+1e-6), row("b", 2)}, want); err == nil {
		t.Error("a float 1e-6 off passed")
	}
	if err := sameRows([]storage.Row{row("a", 1), row("a", 1), row("b", 2)}, want); err == nil {
		t.Error("a different multiset of the same values passed")
	}
	if err := sameRows(want[:2], want); err == nil {
		t.Error("a missing row passed")
	}
}

// TestDecoratorTransparent: rows, Metrics and journal bytes are the same
// with and without the span-recording SSI decorator, on every protocol
// and under churn.
func TestDecoratorTransparent(t *testing.T) {
	small := *specByName("server_mix")
	small.fleet, small.ring = 50, 10

	plain, err := setup(&small, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.close()
	rec := newRecorder()
	deco, err := setup(&small, 7, newSpanSSI(ssi.NewSharded(0), rec))
	if err != nil {
		t.Fatal(err)
	}
	defer deco.close()

	for i := 0; i < small.ring; i++ {
		req := plain.request(i)
		a, err := plain.eng.Execute(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		rec.beginRoot(req.QueryID)
		b, err := deco.eng.Execute(context.Background(), deco.request(i))
		rec.endRoot()
		if err != nil {
			t.Fatal(err)
		}
		if err := sameRows(b.Result.Rows, a.Result.Rows); err != nil {
			t.Errorf("%s: rows: %v", req.QueryID, err)
		}
		if !reflect.DeepEqual(a.Metrics, b.Metrics) {
			t.Errorf("%s: Metrics differ behind the decorator", req.QueryID)
		}
		if !bytes.Equal(a.Journal.Bytes(), b.Journal.Bytes()) {
			t.Errorf("%s: journal bytes differ behind the decorator", req.QueryID)
		}
	}
	if rec.post == nil || len(rec.deposits) == 0 {
		t.Error("the decorator captured nothing of the first traced query")
	}
	rejected := 0
	for i := range rec.spans {
		if sp := rec.span(i); sp.Layer == "ssi" && sp.Name == "deposit-rejected" {
			rejected += sp.Count
		}
	}
	if rejected == 0 {
		t.Error("no rejected deposit recorded: the churned slots did not reach the decorator")
	}
}

// TestAnswerCheckCatchesWrongRows: the expectations are not vacuous.
func TestAnswerCheckCatchesWrongRows(t *testing.T) {
	small := *specByName("server_mix")
	small.fleet, small.ring = 50, 10
	fx, err := setup(&small, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.close()
	want, err := expectations(fx, small.ring)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		resp, err := fx.do(fx.request(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := want[i].check(resp.Result.Rows, resp.Metrics.TQ); err != nil {
			t.Errorf("slot %d: %v", i, err)
		}
		if err := want[i].check(resp.Result.Rows[1:], resp.Metrics.TQ); err == nil {
			t.Errorf("slot %d: a result missing a row passed", i)
		}
		if want[i].hasTQ {
			if err := want[i].check(resp.Result.Rows, resp.Metrics.TQ+1); err == nil {
				t.Errorf("slot %d: a churned run with a different T_Q passed", i)
			}
		}
	}
}

func TestBenchmarkJSONMatches(t *testing.T) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if !reflect.DeepEqual(bf.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(bf.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", bf.Command, bf.Paths)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q", i, w.Name, specs[i].name)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name, or why longer than 200", w.Name)
		}
	}

	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d]: %s (%s), harness has %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
			t.Errorf("end_to_end[%d]: malformed name %q or unit %q", i, m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	if s := bf.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("setup_s is declared as %+v", s)
	}

	if len(bf.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(bf.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for _, m := range bf.EndToEnd {
		seen[m.Name] = true
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d]: %s (%s), harness has %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per_layer[%d]: malformed %+v", i, m)
		}
		if seen[m.Name] {
			t.Errorf("metric name %s is used twice", m.Name)
		}
		seen[m.Name] = true
	}
}
