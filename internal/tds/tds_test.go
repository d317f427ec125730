package tds

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/trustedcells/tcq/internal/accessctl"
	"github.com/trustedcells/tcq/internal/histogram"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/sqlparse"
	"github.com/trustedcells/tcq/internal/storage"
	"github.com/trustedcells/tcq/internal/tdscrypto"
)

var (
	authKey = tdscrypto.DeriveKey(tdscrypto.Key{}, "auth")
	ring    = tdscrypto.NewKeyAuthority(tdscrypto.DeriveKey(tdscrypto.Key{}, "m")).Ring()
	t0      = time.Unix(1700000000, 0)
)

func schema() *storage.Schema {
	return storage.MustSchema(storage.TableDef{Name: "Power", Columns: []storage.Column{
		{Name: "cid", Kind: storage.KindInt},
		{Name: "district", Kind: storage.KindString},
		{Name: "cons", Kind: storage.KindFloat},
	}})
}

func newTDS(t *testing.T, rows ...storage.Row) *TDS {
	t.Helper()
	db := storage.NewLocalDB(schema())
	for _, r := range rows {
		if err := db.Insert("Power", r); err != nil {
			t.Fatal(err)
		}
	}
	policy := &accessctl.Policy{Rules: []accessctl.Rule{{Role: "analyst"}}}
	d, err := New("tds-test", db, ring, policy, accessctl.NewAuthority(authKey))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func makePost(t *testing.T, sql string, kind protocol.Kind, params protocol.Params) *protocol.QueryPost {
	t.Helper()
	k1 := tdscrypto.MustSuite(ring.K1)
	cred := accessctl.NewAuthority(authKey).Issue("q", []string{"analyst"}, t0.Add(time.Hour))
	post, err := protocol.NewQueryPost("q-1", kind, params, sql, k1, cred, sqlparse.SizeClause{})
	if err != nil {
		t.Fatal(err)
	}
	return post
}

func cfg() CollectConfig {
	return CollectConfig{Rng: rand.New(rand.NewSource(1)), Now: t0}
}

func row(cid int64, district string, cons float64) storage.Row {
	return storage.Row{storage.Int(cid), storage.Str(district), storage.Float(cons)}
}

const aggSQL = `SELECT district, SUM(cons) FROM Power GROUP BY district`

func TestCollectSAggTagless(t *testing.T) {
	d := newTDS(t, row(1, "Paris", 10), row(1, "Paris", 20))
	post := makePost(t, aggSQL, protocol.KindSAgg, protocol.Params{})
	tuples, stats, err := d.Collect(post, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if stats.True != 2 || stats.Fake != 0 || stats.Dummy != 0 || stats.Denied {
		t.Errorf("stats = %+v", stats)
	}
	for _, w := range tuples {
		if w.Tag != nil {
			t.Error("S_Agg tuples must be tagless")
		}
		if len(w.Ciphertext) == 0 {
			t.Error("empty ciphertext")
		}
	}
}

func TestCollectEmptyResultYieldsDummy(t *testing.T) {
	d := newTDS(t) // no data
	post := makePost(t, aggSQL, protocol.KindSAgg, protocol.Params{})
	tuples, stats, err := d.Collect(post, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 || stats.Dummy != 1 || stats.True != 0 {
		t.Errorf("tuples = %d stats = %+v", len(tuples), stats)
	}
}

func TestCollectDeniedYieldsDummy(t *testing.T) {
	d := newTDS(t, row(1, "Paris", 10))
	d.Policy = &accessctl.Policy{Rules: []accessctl.Rule{{Role: "other"}}}
	post := makePost(t, aggSQL, protocol.KindSAgg, protocol.Params{})
	tuples, stats, err := d.Collect(post, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 || !stats.Denied || stats.Dummy != 1 {
		t.Errorf("tuples = %d stats = %+v", len(tuples), stats)
	}
}

func TestCollectNoiseTagsAndFakes(t *testing.T) {
	domain := []storage.Row{{storage.Str("Paris")}, {storage.Str("Lyon")}, {storage.Str("Metz")}}
	d := newTDS(t, row(1, "Paris", 10))

	c := cfg()
	c.Domain = domain
	post := makePost(t, aggSQL, protocol.KindRnfNoise, protocol.Params{Nf: 4})
	tuples, stats, err := d.Collect(post, c)
	if err != nil {
		t.Fatal(err)
	}
	if stats.True != 1 || stats.Fake != 4 {
		t.Errorf("stats = %+v", stats)
	}
	if len(tuples) != 5 {
		t.Errorf("tuples = %d", len(tuples))
	}
	for _, w := range tuples {
		if len(w.Tag) == 0 {
			t.Error("noise tuples must carry Det_Enc tags")
		}
	}

	// C_Noise: one fake per other domain value.
	post = makePost(t, aggSQL, protocol.KindCNoise, protocol.Params{})
	tuples, stats, err = d.Collect(post, c)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Fake != len(domain)-1 {
		t.Errorf("C_Noise fakes = %d, want %d", stats.Fake, len(domain)-1)
	}
	// Tags must cover the full domain (flat by construction).
	tags := map[string]bool{}
	for _, w := range tuples {
		tags[string(w.Tag)] = true
	}
	if len(tags) != len(domain) {
		t.Errorf("distinct tags = %d, want %d", len(tags), len(domain))
	}
}

func TestCollectNoiseRequiresDomain(t *testing.T) {
	d := newTDS(t, row(1, "Paris", 10))
	post := makePost(t, aggSQL, protocol.KindRnfNoise, protocol.Params{Nf: 1})
	if _, _, err := d.Collect(post, cfg()); err == nil {
		t.Error("Rnf_Noise without domain accepted")
	}
	// A dataless TDS needs the domain too (tagged dummy).
	empty := newTDS(t)
	if _, _, err := empty.Collect(post, cfg()); err == nil {
		t.Error("dummy without domain accepted")
	}
}

func TestCollectEDHist(t *testing.T) {
	hist := histogram.MustBuild(map[string]int64{
		storage.Row{storage.Str("Paris")}.Key(): 5,
		storage.Row{storage.Str("Lyon")}.Key():  5,
	}, 2)
	d := newTDS(t, row(1, "Paris", 10))
	c := cfg()
	c.Hist = hist
	post := makePost(t, aggSQL, protocol.KindEDHist, protocol.Params{})
	tuples, _, err := d.Collect(post, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 || len(tuples[0].Tag) != 16 {
		t.Errorf("tuples = %v", tuples)
	}
	// Without a histogram the protocol cannot run.
	post = makePost(t, aggSQL, protocol.KindEDHist, protocol.Params{})
	if _, _, err := d.Collect(post, cfg()); err == nil {
		t.Error("ED_Hist without histogram accepted")
	}
}

func TestAggregateMergesAndFiltersNoise(t *testing.T) {
	domain := []storage.Row{{storage.Str("Paris")}, {storage.Str("Lyon")}}
	d1 := newTDS(t, row(1, "Paris", 10))
	d2 := newTDS(t, row(2, "Paris", 30))
	c := cfg()
	c.Domain = domain
	post := makePost(t, aggSQL, protocol.KindCNoise, protocol.Params{})

	var partition []protocol.WireTuple
	for _, d := range []*TDS{d1, d2} {
		tuples, _, err := d.Collect(post, c)
		if err != nil {
			t.Fatal(err)
		}
		partition = append(partition, tuples...)
	}
	worker := newTDS(t)
	partials, err := worker.Aggregate(post, partition, EmitPerGroup)
	if err != nil {
		t.Fatal(err)
	}
	// Fakes discarded: only the Paris group has true data.
	if len(partials) != 1 {
		t.Fatalf("partials = %d, want 1 (fake groups dropped)", len(partials))
	}
	// Finalize and decrypt as the querier would.
	finals, err := worker.FinalizeGroups(post, partials, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(finals) != 1 {
		t.Fatalf("finals = %d", len(finals))
	}
	k1 := tdscrypto.MustSuite(ring.K1)
	pt, err := k1.Decrypt(finals[0].Ciphertext, post.AAD())
	if err != nil {
		t.Fatal(err)
	}
	_, body, err := protocol.DecodePayload(pt)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := storage.DecodeRow(body)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].AsString() != "Paris" {
		t.Errorf("group = %v", res)
	}
	if sum, _ := res[1].AsFloat(); sum != 40 {
		t.Errorf("SUM = %g, want 40", sum)
	}
}

func TestAggregateAllNoiseYieldsDummy(t *testing.T) {
	domain := []storage.Row{{storage.Str("Paris")}, {storage.Str("Lyon")}}
	d := newTDS(t, row(1, "Paris", 10))
	c := cfg()
	c.Domain = domain
	post := makePost(t, aggSQL, protocol.KindCNoise, protocol.Params{})
	tuples, _, err := d.Collect(post, c)
	if err != nil {
		t.Fatal(err)
	}
	// Keep only the fakes.
	var fakesOnly []protocol.WireTuple
	worker := newTDS(t)
	for _, w := range tuples {
		out, err := worker.Aggregate(post, []protocol.WireTuple{w}, EmitPerGroup)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) == 1 && out[0].Tag == nil {
			fakesOnly = append(fakesOnly, w) // produced a dummy -> was noise
		}
	}
	if len(fakesOnly) != 1 {
		t.Fatalf("expected exactly 1 fake (domain size 2), got %d", len(fakesOnly))
	}
}

func TestAggregateEmitWholeIsMergeable(t *testing.T) {
	d1 := newTDS(t, row(1, "Paris", 10), row(2, "Lyon", 5))
	d2 := newTDS(t, row(3, "Paris", 30))
	post := makePost(t, aggSQL, protocol.KindSAgg, protocol.Params{})
	var all []protocol.WireTuple
	for _, d := range []*TDS{d1, d2} {
		tuples, _, err := d.Collect(post, cfg())
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, tuples...)
	}
	w1 := newTDS(t)
	step1, err := w1.Aggregate(post, all[:2], EmitWhole)
	if err != nil {
		t.Fatal(err)
	}
	step2, err := w1.Aggregate(post, all[2:], EmitWhole)
	if err != nil {
		t.Fatal(err)
	}
	final, err := w1.Aggregate(post, append(step1, step2...), EmitWhole)
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != 1 {
		t.Fatalf("final = %d blobs", len(final))
	}
	outs, err := w1.FinalizeGroups(post, final, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Errorf("groups = %d, want Paris and Lyon", len(outs))
	}
}

func TestFilterSFWDropsDummies(t *testing.T) {
	d := newTDS(t, row(1, "Paris", 10))
	empty := newTDS(t)
	post := makePost(t, `SELECT cid, cons FROM Power`, protocol.KindBasic, protocol.Params{})
	var partition []protocol.WireTuple
	for _, x := range []*TDS{d, empty} {
		tuples, _, err := x.Collect(post, cfg())
		if err != nil {
			t.Fatal(err)
		}
		partition = append(partition, tuples...)
	}
	if len(partition) != 2 {
		t.Fatalf("collected = %d", len(partition))
	}
	worker := newTDS(t)
	out, err := worker.FilterSFW(post, partition)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("filtered = %d, want 1 true tuple", len(out))
	}
	// The output opens under k1 (querier key), not k2.
	k1 := tdscrypto.MustSuite(ring.K1)
	if _, err := k1.Decrypt(out[0].Ciphertext, post.AAD()); err != nil {
		t.Errorf("k1 decrypt: %v", err)
	}
}

func TestFinalizeGroupsForceEmpty(t *testing.T) {
	worker := newTDS(t)
	post := makePost(t, `SELECT COUNT(*) FROM Power`, protocol.KindSAgg, protocol.Params{})
	outs, err := worker.FinalizeGroups(post, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("outs = %d, want the synthesized empty-aggregate row", len(outs))
	}
	outs, err = worker.FinalizeGroups(post, nil, false)
	if err != nil || outs != nil {
		t.Errorf("no input, no force: %v %v", outs, err)
	}
}

func TestAggregateRejectsForeignCiphertext(t *testing.T) {
	worker := newTDS(t)
	post := makePost(t, aggSQL, protocol.KindSAgg, protocol.Params{})
	bogus := []protocol.WireTuple{{Ciphertext: []byte("not a ciphertext at all")}}
	if _, err := worker.Aggregate(post, bogus, EmitWhole); err == nil {
		t.Error("garbage ciphertext accepted")
	}
	if _, err := worker.FilterSFW(post, bogus); err == nil {
		t.Error("garbage ciphertext accepted by filter")
	}
	if _, err := worker.FinalizeGroups(post, bogus, false); err == nil {
		t.Error("garbage ciphertext accepted by finalize")
	}
}

func TestDummyTagsPerProtocol(t *testing.T) {
	empty := newTDS(t) // no data -> always a dummy
	domain := []storage.Row{{storage.Str("Paris")}, {storage.Str("Lyon")}}
	hist := histogram.MustBuild(map[string]int64{
		storage.Row{storage.Str("Paris")}.Key(): 3,
		storage.Row{storage.Str("Lyon")}.Key():  3,
	}, 2)

	c := cfg()
	c.Domain = domain
	c.Hist = hist

	cases := []struct {
		kind    protocol.Kind
		wantTag bool
	}{
		{protocol.KindSAgg, false},
		{protocol.KindBasic, false},
		{protocol.KindRnfNoise, true},
		{protocol.KindCNoise, true},
		{protocol.KindEDHist, true},
	}
	for _, tc := range cases {
		sql := aggSQL
		if tc.kind == protocol.KindBasic {
			sql = `SELECT cid FROM Power`
		}
		post := makePost(t, sql, tc.kind, protocol.Params{Nf: 1})
		tuples, stats, err := empty.Collect(post, c)
		if err != nil {
			t.Fatalf("%v: %v", tc.kind, err)
		}
		if stats.Dummy != 1 || len(tuples) != 1 {
			t.Errorf("%v: stats %+v", tc.kind, stats)
		}
		if got := len(tuples[0].Tag) > 0; got != tc.wantTag {
			t.Errorf("%v: dummy tagged=%v, want %v", tc.kind, got, tc.wantTag)
		}
	}
}

func TestDummyTagRequiresProtocolInputs(t *testing.T) {
	empty := newTDS(t)
	post := makePost(t, aggSQL, protocol.KindEDHist, protocol.Params{})
	if _, _, err := empty.Collect(post, cfg()); err == nil {
		t.Error("ED_Hist dummy without histogram accepted")
	}
	post = makePost(t, aggSQL, protocol.KindCNoise, protocol.Params{})
	if _, _, err := empty.Collect(post, cfg()); err == nil {
		t.Error("C_Noise dummy without domain accepted")
	}
}

func TestCorruptDeviceDropsWork(t *testing.T) {
	honest := newTDS(t)
	corrupt := newTDS(t)
	corrupt.Corrupt = true

	// Build a partition of 8 true tuples.
	var partition []protocol.WireTuple
	post := makePost(t, aggSQL, protocol.KindSAgg, protocol.Params{})
	for i := int64(0); i < 8; i++ {
		// Distinct values: different drop subsets yield different sums.
		d := newTDS(t, row(i, "Paris", float64(10+i*i)))
		tuples, _, err := d.Collect(post, cfg())
		if err != nil {
			t.Fatal(err)
		}
		partition = append(partition, tuples...)
	}
	hOut, err := honest.Aggregate(post, partition, EmitWhole)
	if err != nil {
		t.Fatal(err)
	}
	cOut, err := corrupt.Aggregate(post, partition, EmitWhole)
	if err != nil {
		t.Fatal(err)
	}
	// Both outputs are well-formed ciphertexts, but the semantic digests
	// diverge — exactly what the audit compares.
	if string(hOut[0].Digest) == string(cOut[0].Digest) {
		t.Fatal("corrupt output indistinguishable from honest one")
	}
	// Two honest devices agree digest-for-digest.
	honest2 := newTDS(t)
	hOut2, err := honest2.Aggregate(post, partition, EmitWhole)
	if err != nil {
		t.Fatal(err)
	}
	if string(hOut[0].Digest) != string(hOut2[0].Digest) {
		t.Fatal("honest replicas disagree")
	}
	// Different corrupt devices usually disagree with each other too (the
	// corruption pattern is ID-keyed). Individual ID pairs can collide on
	// the drop pattern, so require disagreement from at least one of
	// several independently named devices.
	disagreed := false
	for _, id := range []string{"tds-a", "tds-b", "tds-c", "tds-d"} {
		corrupt2 := newTDS(t)
		corrupt2.ID = id
		corrupt2.Corrupt = true
		cOut2, err := corrupt2.Aggregate(post, partition, EmitWhole)
		if err != nil {
			t.Fatal(err)
		}
		if string(cOut[0].Digest) != string(cOut2[0].Digest) {
			disagreed = true
			break
		}
	}
	if !disagreed {
		t.Error("every independently corrupt device produced the same forgery")
	}
}

// TestPlanCachePerQuery: a device holds no plan of its own. Every phase it
// takes part in reads the one admission record of its key in the query's
// table; another query gets another table, and dropping one leaves the
// other alone.
func TestPlanCachePerQuery(t *testing.T) {
	d := newTDS(t, row(1, "Paris", 10))
	d.Shared = NewPlanCache()
	post := makePost(t, aggSQL, protocol.KindSAgg, protocol.Params{})
	tuples, _, err := d.Collect(post, cfg())
	if err != nil {
		t.Fatal(err)
	}
	first, _, _ := d.admit(d.matFor(post), post)
	if _, _, err := d.Collect(post, cfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Aggregate(post, tuples, EmitWhole); err != nil {
		t.Fatal(err)
	}
	again, _, _ := d.admit(d.matFor(post), post)
	if n := len(d.Shared.queries[post.ID].admissions); n != 1 || again != first || first == nil {
		t.Errorf("one device, one post: %d admission records, want the one plan it started with", n)
	}
	other, err := protocol.NewQueryPost("q-2", post.Kind, post.Params, aggSQL,
		tdscrypto.MustSuite(ring.K1), post.Credential, sqlparse.SizeClause{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Collect(other, cfg()); err != nil {
		t.Fatal(err)
	}
	d.Shared.Drop(post.ID)
	if len(d.Shared.queries) != 1 || len(d.Shared.queries["q-2"].admissions) != 1 {
		t.Errorf("Drop(%q) left %d tables, want q-2's alone", post.ID, len(d.Shared.queries))
	}
}

// TestCollectIntoOut: a call handed the caller's buffer — dirty, too small
// or ample — answers as one that allocates: the same decrypted rows, tags
// and stats in the same order and the RNG left at the same draw, for all
// five protocols, a dataless device (the dummy) included.
func TestCollectIntoOut(t *testing.T) {
	domain := []storage.Row{{storage.Str("Lyon")}, {storage.Str("Metz")}, {storage.Str("Paris")}}
	hist := histogram.MustBuild(map[string]int64{domain[0].Key(): 5, domain[1].Key(): 5, domain[2].Key(): 5}, 2)
	full := newTDS(t, row(1, "Paris", 10), row(1, "Lyon", 20), row(1, "Paris", 30), row(1, "Metz", 40))
	k2 := tdscrypto.MustSuite(ring.K2)
	for _, tc := range []struct {
		kind   protocol.Kind
		sql    string
		params protocol.Params
	}{
		{protocol.KindBasic, `SELECT cid, cons FROM Power WHERE cons > 15`, protocol.Params{}},
		{protocol.KindSAgg, aggSQL, protocol.Params{}},
		{protocol.KindRnfNoise, aggSQL, protocol.Params{Nf: 3}},
		{protocol.KindCNoise, aggSQL, protocol.Params{}},
		{protocol.KindEDHist, aggSQL, protocol.Params{}},
	} {
		post := makePost(t, tc.sql, tc.kind, tc.params)
		for _, d := range []*TDS{full, newTDS(t)} {
			run := func(out []protocol.WireTuple) (rows []string, stats CollectStats, next int64) {
				c := cfg()
				c.Domain, c.Hist, c.Out, c.Arena = domain, hist, out, &tdscrypto.Arena{}
				tuples, stats, err := d.Collect(post, c)
				if err != nil {
					t.Fatalf("%v: %v", tc.kind, err)
				}
				if out != nil && cap(out) >= len(tuples) && &tuples[0] != &out[:1][0] {
					t.Errorf("%v: an ample Out was not written in place", tc.kind)
				}
				for _, w := range tuples {
					pt, err := k2.Decrypt(w.Ciphertext, post.AAD())
					if err != nil {
						t.Fatalf("%v: %v", tc.kind, err)
					}
					if pt[0] == byte(protocol.MarkerDummy) {
						pt = pt[:1] // a dummy's body is random filler: only its size is the call's
					}
					rows = append(rows, fmt.Sprintf("%x|%x|%d", w.Tag, pt, len(w.Ciphertext)))
				}
				return rows, stats, c.Rng.Int63()
			}
			want, wantStats, wantNext := run(nil)
			dirty := make([]protocol.WireTuple, 64)
			for i := range dirty {
				dirty[i] = protocol.WireTuple{Tag: []byte("stale"), Ciphertext: []byte("stale")}
			}
			for _, out := range [][]protocol.WireTuple{dirty, dirty[:1:1], dirty[:0:0]} {
				got, stats, next := run(out)
				if fmt.Sprint(got) != fmt.Sprint(want) || stats != wantStats || next != wantNext {
					t.Errorf("%v into an Out of cap %d: %d tuples, stats %+v, next draw %d; want %d, %+v, %d",
						tc.kind, cap(out), len(got), stats, next, len(want), wantStats, wantNext)
				}
			}
		}
	}
}

// TestAggregateFoldAllocBudget: folding a partition allocates for the
// groups it finds and for the one result it emits, never per tuple — the
// plaintext buffer, the decoded row and the group-key scratch are reused,
// and equal grouping texts share one string. Ten times the tuples over
// the same groups must cost the same.
func TestAggregateFoldAllocBudget(t *testing.T) {
	districts := []string{"Paris", "Lyon", "Metz", "Nice"}
	post := makePost(t, aggSQL, protocol.KindSAgg, protocol.Params{})
	partition := func(n int) []protocol.WireTuple {
		rows := make([]storage.Row, n)
		for i := range rows {
			rows[i] = row(1, districts[i%len(districts)], float64(i))
		}
		tuples, _, err := newTDS(t, rows...).Collect(post, cfg())
		if err != nil || len(tuples) != n {
			t.Fatalf("collected %d of %d tuples: %v", len(tuples), n, err)
		}
		return tuples
	}
	worker := newTDS(t)
	worker.Shared = NewPlanCache() // as the engine wires it: the plan is read, not compiled per call
	fold := func(p []protocol.WireTuple) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := worker.Aggregate(post, p, EmitWhole); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Measured at 45 and 45: four groups at five apiece, and the fixed cost
	// of a call (accumulator, buffers, fingerprint, the encrypted result).
	// The slack is for pooled MAC states a GC or the race detector drops;
	// one allocation per tuple would add 360.
	small, large := fold(partition(40)), fold(partition(400))
	if large > small+4 || large > 52 {
		t.Errorf("Aggregate allocates %v times over 40 tuples and %v over 400, both of %d groups; budget 52",
			small, large, len(districts))
	}
}

// TestCollectNoiseAllocBudget: a C_Noise collection allocates per call,
// not per fake — the output is sized once, group keys are compared in a
// scratch buffer, tags come from the shared table and ciphertexts from
// the arena. Five times the domain must cost the same.
func TestCollectNoiseAllocBudget(t *testing.T) {
	post := makePost(t, aggSQL, protocol.KindCNoise, protocol.Params{})
	shared := NewPlanCache()
	collect := func(domainSize int) float64 {
		c := cfg()
		for i := 0; i < domainSize; i++ {
			c.Domain = append(c.Domain, storage.Row{storage.Str(fmt.Sprintf("district-%02d", i))})
		}
		d := newTDS(t, row(1, "district-03", 10), row(1, "district-07", 20))
		d.Shared = shared
		return testing.AllocsPerRun(20, func() {
			c.Arena = &tdscrypto.Arena{} // as the engine does per worker: blocks amortize over its devices
			tuples, stats, err := d.Collect(post, c)
			if err != nil || len(tuples) != 2*domainSize || stats.Fake != 2*(domainSize-1) {
				t.Fatalf("collected %d tuples, stats %+v: %v", len(tuples), stats, err)
			}
		})
	}
	// Measured at 21 and 21: the arena and its block, the output, the
	// scratch buffers, the local rows and the policy check. The slack is
	// for pooled MAC states a GC or the race detector drops; one Key()
	// string per domain value per row would alone add 100.
	small, large := collect(10), collect(50)
	if large > small+4 || large > 28 {
		t.Errorf("Collect allocates %v times at |domain| 10 and %v at 50; budget 28, and no growth", small, large)
	}
}

// TestDetTagTable: the shared table hands out exactly Det_Enc's bytes,
// and only ever to devices whose serving material computed them.
func TestDetTagTable(t *testing.T) {
	auth := tdscrypto.NewKeyAuthority(tdscrypto.DeriveKey(tdscrypto.Key{}, "m"))
	km1, err := NewKeyMaterial(auth.RingAt(0))
	if err != nil {
		t.Fatal(err)
	}
	km2, err := NewKeyMaterial(auth.RingAt(1))
	if err != nil {
		t.Fatal(err)
	}
	shared := NewPlanCache()
	device := func(id string, epoch int, km *KeyMaterial) *TDS {
		d := NewWithMaterial(id, storage.NewLocalDB(schema()), km, nil, nil)
		d.SetEpoch(epoch)
		d.Shared = shared
		return d
	}
	post := makePost(t, aggSQL, protocol.KindCNoise, protocol.Params{})
	post.Epoch = 1
	group := storage.Row{storage.Str("Paris")}
	tagOf := func(d *TDS) []byte {
		sc := collectScratch{m: d.matFor(post)}
		tag, err := d.groupTag(post, group, &sc)
		if err != nil {
			t.Fatal(err)
		}
		return tag
	}
	want := func(km *KeyMaterial) []byte {
		tag, err := km.K2.DetEncrypt(storage.EncodeRow(group), post.AAD())
		if err != nil {
			t.Fatal(err)
		}
		return tag
	}

	first, second := device("a", 1, km1), device("b", 1, km1)
	miss, hit := tagOf(first), tagOf(second)
	if !bytes.Equal(miss, want(km1)) || !bytes.Equal(hit, want(km1)) {
		t.Fatal("table tag differs from DetEncrypt under the same k2")
	}
	if &miss[0] != &hit[0] {
		t.Error("second device of the epoch recomputed the tag instead of sharing it")
	}
	// A migrated device serves the epoch-1 post through its grace
	// material, so it shares epoch 1's tags — and its own epoch's tags
	// once the post is at epoch 2.
	migrated := device("c", 1, km1)
	migrated.Migrate(2, km2)
	if got := tagOf(migrated); &got[0] != &miss[0] {
		t.Error("grace material did not resolve its own epoch's table entry")
	}
	// A device stuck on another epoch computes and reads only its own.
	stale := device("d", 2, km2)
	if got := tagOf(stale); !bytes.Equal(got, want(km2)) || bytes.Equal(got, miss) {
		t.Error("a device on another epoch must get tags under its own k2")
	}
	if n := len(shared.queries[post.ID].tags); n != 2 {
		t.Errorf("table holds %d tags, want one per material", n)
	}
	// A wave of devices of both epochs filling and reading the table at
	// once (run under -race by check.sh).
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		km := []*KeyMaterial{km1, km2}[g%2]
		wg.Add(1)
		go func(d *TDS) {
			defer wg.Done()
			sc := collectScratch{m: km}
			for i := 0; i < 200; i++ {
				grp := storage.Row{storage.Int(int64(i % 20))}
				want, _ := km.K2.DetEncrypt(storage.EncodeRow(grp), post.AAD())
				if got, err := d.groupTag(post, grp, &sc); err != nil || !bytes.Equal(got, want) {
					t.Errorf("concurrent tag of group %d: %x, want %x (%v)", i%20, got, want, err)
					return
				}
			}
		}(device(fmt.Sprint("w", g), 1+g%2, km))
	}
	wg.Wait()
	shared.Drop(post.ID)
	if len(shared.queries) != 0 {
		t.Errorf("%d query tables outlive the query", len(shared.queries))
	}
	// No shared cache: every call computes, same bytes.
	alone := device("e", 1, km1)
	alone.Shared = nil
	if a, b := tagOf(alone), tagOf(alone); !bytes.Equal(a, miss) || &a[0] == &b[0] {
		t.Error("Shared == nil must still tag, freshly each time")
	}
}
