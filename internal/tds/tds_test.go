package tds

import (
	"bytes"
	"encoding/binary"
	"errors"
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
	k1 := newTDS(t).km.K1
	cred := accessctl.NewAuthority(authKey).Issue("q", []string{"analyst"}, t0.Add(time.Hour))
	post, err := protocol.NewQueryPost("q-1", kind, params, sql, k1, cred, sqlparse.SizeClause{})
	if err != nil {
		t.Fatal(err)
	}
	return post
}

func cfg() CollectConfig {
	return CollectConfig{Rng: rand.New(rand.NewSource(1)), Now: t0, Scratch: new(Scratch)}
}

func row(cid int64, district string, cons float64) storage.Row {
	return storage.Row{storage.Int(cid), storage.Str(district), storage.Float(cons)}
}

// gather collects post from each device under c and concatenates what
// they emit.
func gather(t *testing.T, post *protocol.QueryPost, c CollectConfig, devs ...*TDS) []protocol.WireTuple {
	t.Helper()
	var all []protocol.WireTuple
	for _, d := range devs {
		tuples, _, err := d.Collect(post, c)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, tuples...)
	}
	return all
}

// must returns a phase call's tuples, failing the test on its error.
func must(t *testing.T) func([]protocol.WireTuple, error) []protocol.WireTuple {
	return func(out []protocol.WireTuple, err error) []protocol.WireTuple {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
}

const aggSQL = `SELECT district, SUM(cons) FROM Power GROUP BY district`

func TestCollectSAggTagless(t *testing.T) {
	d := newTDS(t, row(1, "Paris", 10), row(1, "Paris", 20))
	post := makePost(t, aggSQL, protocol.KindSAgg, protocol.Params{})
	tuples, stats, err := d.Collect(post, cfg())
	if err != nil || stats.True != 2 || stats.Fake != 0 || stats.Dummy != 0 || stats.Denied {
		t.Fatalf("stats = %+v: %v", stats, err)
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
	if err != nil || len(tuples) != 1 || stats.Dummy != 1 || stats.True != 0 {
		t.Errorf("tuples = %d stats = %+v: %v", len(tuples), stats, err)
	}
}

func TestCollectDeniedYieldsDummy(t *testing.T) {
	d := newTDS(t, row(1, "Paris", 10))
	d.Policy = &accessctl.Policy{Rules: []accessctl.Rule{{Role: "other"}}}
	post := makePost(t, aggSQL, protocol.KindSAgg, protocol.Params{})
	tuples, stats, err := d.Collect(post, cfg())
	if err != nil || len(tuples) != 1 || !stats.Denied || stats.Dummy != 1 {
		t.Errorf("tuples = %d stats = %+v: %v", len(tuples), stats, err)
	}
}

func TestCollectNoiseTagsAndFakes(t *testing.T) {
	domain := []storage.Row{{storage.Str("Paris")}, {storage.Str("Lyon")}, {storage.Str("Metz")}}
	d := newTDS(t, row(1, "Paris", 10), row(1, "Metz", 20))
	// Every tuple's tag is Det_Enc of the group its plaintext carries: a
	// tag read from the wrong domain position would route it to another
	// group's partition, which no count below can see.
	k2 := newTDS(t).km.K2
	checkTags := func(post *protocol.QueryPost, ws []protocol.WireTuple) {
		t.Helper()
		for _, w := range ws {
			pt, err := k2.Decrypt(w.Ciphertext, post.AAD())
			if err != nil {
				t.Fatal(err)
			}
			marker, body, _ := protocol.DecodePayload(pt)
			if marker == protocol.MarkerPartial {
				_, n := binary.Uvarint(body) // a per-group partial: one group
				body = body[n:]
			}
			row, _, err := storage.DecodeRow(body)
			want, _ := k2.DetEncrypt(storage.AppendRow(nil, row[:1]), post.AAD())
			if err != nil || !bytes.Equal(w.Tag, want) {
				t.Errorf("%v: marker %d tuple of group %v tagged %x, want %x (%v)", post.Kind, marker, row[:1], w.Tag, want, err)
			}
		}
	}

	// Rnf_Noise draws Nf fakes per true tuple, C_Noise one per other domain
	// value; the latter's tuples stay for the flatness check.
	c := cfg()
	c.Domain = domain
	var tuples []protocol.WireTuple
	for _, tc := range []struct {
		kind  protocol.Kind
		fakes int
	}{{protocol.KindRnfNoise, 2 * 4}, {protocol.KindCNoise, 2 * (len(domain) - 1)}} {
		post := makePost(t, aggSQL, tc.kind, protocol.Params{Nf: 4})
		var stats CollectStats
		var err error
		if tuples, stats, err = d.Collect(post, c); err != nil || stats.True != 2 || stats.Fake != tc.fakes {
			t.Fatalf("%v: %d tuples, stats %+v, want %d fakes: %v", tc.kind, len(tuples), stats, tc.fakes, err)
		}
		checkTags(post, tuples)
	}
	// Tags must cover the full domain (flat by construction).
	tags := map[string]int{}
	for _, w := range tuples {
		tags[string(w.Tag)]++
	}
	if len(tags) != len(domain) || tags[string(tuples[0].Tag)] != 2 {
		t.Errorf("tag counts %v, want %d tags twice each", tags, len(domain))
	}

	// ED_Hist: the per-group emission reads the table its collection
	// was handed the domain for.
	post := makePost(t, aggSQL, protocol.KindEDHist, protocol.Params{})
	c.Hist = histogram.MustBuild(map[string]int64{domain[0].Key(): 1, domain[2].Key(): 1}, 1)
	d.Shared = NewPlanCache()
	tuples = gather(t, post, c, d)
	partials, err := d.Aggregate(post, tuples, EmitPerGroup)
	if err != nil || len(partials) != 2 || len(d.Shared.queries[post.ID].tags) != 1 {
		t.Fatalf("%d partials, %d tag tables: %v", len(partials), len(d.Shared.queries[post.ID].tags), err)
	}
	checkTags(post, partials)
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
	tuples := gather(t, post, c, d)
	if len(tuples) != 1 || len(tuples[0].Tag) != 16 {
		t.Errorf("tuples = %v", tuples)
	}
}

func TestAggregateMergesAndFiltersNoise(t *testing.T) {
	domain := []storage.Row{{storage.Str("Paris")}, {storage.Str("Lyon")}}
	d1 := newTDS(t, row(1, "Paris", 10))
	d2 := newTDS(t, row(2, "Paris", 30))
	c := cfg()
	c.Domain = domain
	post := makePost(t, aggSQL, protocol.KindCNoise, protocol.Params{})

	worker := newTDS(t)
	partials := must(t)(worker.Aggregate(post, gather(t, post, c, d1, d2), EmitPerGroup))
	// Fakes discarded: only the Paris group has true data.
	if len(partials) != 1 {
		t.Fatalf("partials = %d, want 1 (fake groups dropped)", len(partials))
	}
	// Finalize and decrypt as the querier would.
	finals := must(t)(worker.FinalizeGroups(post, partials, false))
	if len(finals) != 1 {
		t.Fatalf("finals = %d", len(finals))
	}
	k1 := newTDS(t).km.K1
	pt, errOpen := k1.Decrypt(finals[0].Ciphertext, post.AAD())
	_, body, errPayload := protocol.DecodePayload(pt)
	res, _, errRow := storage.DecodeRow(body)
	if err := errors.Join(errOpen, errPayload, errRow); err != nil {
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
	// Keep only the fakes.
	var fakesOnly []protocol.WireTuple
	worker := newTDS(t)
	for _, w := range gather(t, post, c, d) {
		if out := must(t)(worker.Aggregate(post, []protocol.WireTuple{w}, EmitPerGroup)); len(out) == 1 && out[0].Tag == nil {
			fakesOnly = append(fakesOnly, w) // produced a dummy -> was noise
		}
	}
	if len(fakesOnly) != 1 {
		t.Fatalf("expected exactly 1 fake (domain size 2), got %d", len(fakesOnly))
	}
}

func TestAggregateEmitWholeIsMergeable(t *testing.T) {
	post := makePost(t, aggSQL, protocol.KindSAgg, protocol.Params{})
	all := gather(t, post, cfg(), newTDS(t, row(1, "Paris", 10), row(2, "Lyon", 5)), newTDS(t, row(3, "Paris", 30)))
	w1, ok := newTDS(t), must(t)
	step1 := ok(w1.Aggregate(post, all[:2], EmitWhole))
	step2 := ok(w1.Aggregate(post, all[2:], EmitWhole))
	final := ok(w1.Aggregate(post, append(step1, step2...), EmitWhole))
	if len(final) != 1 {
		t.Fatalf("final = %d blobs", len(final))
	}
	if outs := ok(w1.FinalizeGroups(post, final, false)); len(outs) != 2 {
		t.Errorf("groups = %d, want Paris and Lyon", len(outs))
	}
}

func TestFilterSFWDropsDummies(t *testing.T) {
	d := newTDS(t, row(1, "Paris", 10))
	empty := newTDS(t)
	post := makePost(t, `SELECT cid, cons FROM Power`, protocol.KindBasic, protocol.Params{})
	partition := gather(t, post, cfg(), d, empty)
	if len(partition) != 2 {
		t.Fatalf("collected = %d", len(partition))
	}
	worker := newTDS(t)
	out := must(t)(worker.FilterSFW(post, partition))
	if len(out) != 1 {
		t.Fatalf("filtered = %d, want 1 true tuple", len(out))
	}
	// The output opens under k1 (querier key), not k2.
	k1 := newTDS(t).km.K1
	if _, err := k1.Decrypt(out[0].Ciphertext, post.AAD()); err != nil {
		t.Errorf("k1 decrypt: %v", err)
	}
}

func TestFinalizeGroupsForceEmpty(t *testing.T) {
	worker := newTDS(t)
	post := makePost(t, `SELECT COUNT(*) FROM Power`, protocol.KindSAgg, protocol.Params{})
	outs, err := worker.FinalizeGroups(post, nil, true)
	if err != nil || len(outs) != 1 {
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

// TestCollectNoiseRequiresDomain: a device with true tuples refuses a tagged
// protocol without its input (the A_G domain, ED_Hist's histogram) before the scan.
func TestCollectNoiseRequiresDomain(t *testing.T) {
	requireProtocolInputs(t, newTDS(t, row(1, "Paris", 10)))
}

// TestDummyTagRequiresProtocolInputs: so does a dataless device, whose only tag is a dummy's.
func TestDummyTagRequiresProtocolInputs(t *testing.T) { requireProtocolInputs(t, newTDS(t)) }

func requireProtocolInputs(t *testing.T, d *TDS) {
	t.Helper()
	power, _ := d.DB.Schema().Table("Power")
	for _, kind := range []protocol.Kind{protocol.KindRnfNoise, protocol.KindCNoise, protocol.KindEDHist} {
		if _, _, err := d.Collect(makePost(t, aggSQL, kind, protocol.Params{Nf: 1}), cfg()); err == nil {
			t.Errorf("%v without its input accepted on a device of %d rows", kind, len(d.DB.TableRows(nil, power)[0]))
		}
	}
}

func TestCorruptDeviceDropsWork(t *testing.T) {
	honest := newTDS(t)
	corrupt := newTDS(t)
	corrupt.Corrupt = true

	// Build a partition of 8 true tuples.
	var devs []*TDS
	post := makePost(t, aggSQL, protocol.KindSAgg, protocol.Params{})
	for i := int64(0); i < 8; i++ {
		// Distinct values: different drop subsets yield different sums.
		devs = append(devs, newTDS(t, row(i, "Paris", float64(10+i*i))))
	}
	partition, ok := gather(t, post, cfg(), devs...), must(t)
	hOut := ok(honest.Aggregate(post, partition, EmitWhole))
	cOut := ok(corrupt.Aggregate(post, partition, EmitWhole))
	// Both outputs are well-formed ciphertexts, but the semantic digests
	// diverge — exactly what the audit compares.
	if string(hOut[0].Digest) == string(cOut[0].Digest) {
		t.Fatal("corrupt output indistinguishable from honest one")
	}
	// Two honest devices agree digest-for-digest.
	if hOut2 := ok(newTDS(t).Aggregate(post, partition, EmitWhole)); string(hOut[0].Digest) != string(hOut2[0].Digest) {
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
		if cOut2 := ok(corrupt2.Aggregate(post, partition, EmitWhole)); string(cOut[0].Digest) != string(cOut2[0].Digest) {
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
	tuples := gather(t, post, cfg(), d)
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
		newTDS(t).km.K1, post.Credential, sqlparse.SizeClause{})
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
// or ample — and a worker's reused Scratch answers as one that allocates
// both: the same decrypted rows, tags and stats in the same order and the
// RNG left at the same draw, for all five protocols, a dataless device
// (the dummy) included. The scratch comes from the call before, which ran
// another plan: a self-join's two FROM tables before and after one.
func TestCollectIntoOut(t *testing.T) {
	domain := []storage.Row{{storage.Str("Lyon")}, {storage.Str("Metz")}, {storage.Str("Paris")}}
	hist := histogram.MustBuild(map[string]int64{domain[0].Key(): 5, domain[1].Key(): 5, domain[2].Key(): 5}, 2)
	full := newTDS(t, row(1, "Paris", 10), row(1, "Lyon", 20), row(1, "Paris", 30), row(1, "Metz", 40))
	k2, reused := newTDS(t).km.K2, new(Scratch)
	for _, tc := range []struct {
		kind   protocol.Kind
		sql    string
		params protocol.Params
	}{
		{protocol.KindBasic, `SELECT cid, cons FROM Power WHERE cons > 15`, protocol.Params{}},
		{protocol.KindBasic, `SELECT A.cid, B.district, A.cons FROM Power A, Power B WHERE A.cons < B.cons`, protocol.Params{}},
		{protocol.KindSAgg, aggSQL, protocol.Params{}},
		{protocol.KindRnfNoise, aggSQL, protocol.Params{Nf: 3}},
		{protocol.KindCNoise, aggSQL, protocol.Params{}},
		{protocol.KindEDHist, aggSQL, protocol.Params{}},
	} {
		post := makePost(t, tc.sql, tc.kind, tc.params)
		for _, d := range []*TDS{full, newTDS(t)} {
			run := func(out []protocol.WireTuple, s *Scratch) (rows []string, stats CollectStats, next int64) {
				c := cfg()
				c.Domain, c.Hist, c.Out, c.Arena, c.Scratch = domain, hist, out, &tdscrypto.Arena{}, s
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
			want, wantStats, wantNext := run(nil, nil)
			dirty := make([]protocol.WireTuple, 64)
			for i := range dirty {
				dirty[i] = protocol.WireTuple{Tag: []byte("stale"), Ciphertext: []byte("stale")}
			}
			for _, out := range [][]protocol.WireTuple{dirty, dirty[:1:1], dirty[:0:0]} {
				got, stats, next := run(out, reused)
				if fmt.Sprint(got) != fmt.Sprint(want) || stats != wantStats || next != wantNext {
					t.Errorf("%v into an Out of cap %d: %d tuples, stats %+v, next draw %d; want %d, %+v, %d",
						tc.kind, cap(out), len(got), stats, next, len(want), wantStats, wantNext)
				}
			}
		}
	}
}

// foldAllocs is what a warm EmitWhole fold of post over tuples rows in
// groups districts allocates on worker.
func foldAllocs(t *testing.T, worker *TDS, post *protocol.QueryPost, tuples, groups int) float64 {
	rows := make([]storage.Row, tuples)
	for i := range rows {
		rows[i] = row(1, fmt.Sprintf("district-%02d", i%groups), float64(i))
	}
	partition, _, err := newTDS(t, rows...).Collect(post, cfg())
	if err != nil || len(partition) != tuples {
		t.Fatalf("collected %d of %d tuples: %v", len(partition), tuples, err)
	}
	fold := func() {
		if _, err := worker.Aggregate(post, partition, EmitWhole); err != nil {
			t.Fatal(err)
		}
	}
	fold() // a slab that grew is one chunk from the next reset on, refilled once
	return testing.AllocsPerRun(100, fold)
}

// foldWorker is a phase device as the engine wires it: the plan is read
// from the fleet's table, not compiled per call.
func foldWorker(t *testing.T) *TDS {
	w := newTDS(t)
	w.Shared = NewPlanCache()
	return w
}

// TestAggregateFoldAllocBudget: a warm fold allocates only its outputs,
// whatever the number of tuples or groups: the accumulator, the decoder,
// the plaintext buffer and the fingerprint state are the worker's scratch,
// reused partition after partition, and group keys and texts are interned
// once per plan.
func TestAggregateFoldAllocBudget(t *testing.T) {
	post, worker := makePost(t, aggSQL, protocol.KindSAgg, protocol.Params{}), foldWorker(t)
	for _, shape := range []struct{ tuples, groups int }{{40, 4}, {400, 4}, {400, 40}, {40, 4}} {
		// Measured at 1, with the race detector too: the slice the result
		// rides in (41 when every fold built its own accumulator, decoder,
		// buffers and fingerprint state). Its ciphertext and digest are
		// carved from the scratch's arena, whose blocks each last hundreds
		// of folds; the audit MAC state is the scratch's own.
		if got := foldAllocs(t, worker, post, shape.tuples, shape.groups); got > 3 {
			t.Errorf("a warm fold of %d tuples in %d groups allocates %v times, budget 3", shape.tuples, shape.groups, got)
		}
	}
}

// TestAggregateDistinctAllocBudget: the holistic states keep what they
// grew too. A DISTINCT set is cleared, not remade, looks values up through
// a reused key buffer and interns their keys once per plan; a MEDIAN keeps
// its values' capacity. So at 4 and at 40 groups a warm fold of 400 tuples
// allocates within one of a SUM fold (before: 853 and 1 081 times under
// COUNT(DISTINCT cons), 33 and 201 under MEDIAN).
func TestAggregateDistinctAllocBudget(t *testing.T) {
	for _, groups := range []int{4, 40} {
		sum := foldAllocs(t, foldWorker(t), makePost(t, `SELECT district, SUM(cons) FROM Power GROUP BY district`,
			protocol.KindSAgg, protocol.Params{}), 400, groups)
		for _, agg := range []string{"COUNT(DISTINCT cons)", "MEDIAN(cons)"} {
			post := makePost(t, "SELECT district, "+agg+" FROM Power GROUP BY district", protocol.KindSAgg, protocol.Params{})
			if got := foldAllocs(t, foldWorker(t), post, 400, groups); got > sum+1 {
				t.Errorf("%s: a warm fold of 400 tuples in %d groups allocates %v times, SUM %v", agg, groups, got, sum)
			}
		}
	}
}

// TestFoldOutputsOutliveTheScratch: what a fold returns is never its
// worker's scratch. The outputs of consecutive Aggregate (both emit
// modes), FinalizeGroups and FilterSFW calls on one worker stay
// byte-identical through every call after them, as a step's output must
// while it feeds later steps on the same worker: two EmitWhole blobs fold
// into one, which finalizes to every group of both.
func TestFoldOutputsOutliveTheScratch(t *testing.T) {
	agg := makePost(t, aggSQL, protocol.KindSAgg, protocol.Params{})
	sfw := makePost(t, `SELECT cid, cons FROM Power`, protocol.KindBasic, protocol.Params{})
	worker := newTDS(t)
	worker.Shared = NewPlanCache()
	var outs [][]protocol.WireTuple
	var was []string
	step := func(out []protocol.WireTuple, err error) []protocol.WireTuple {
		if err != nil || len(out) == 0 {
			t.Fatalf("call %d: %d tuples, %v", len(outs), len(out), err)
		}
		outs, was = append(outs, out), append(was, fmt.Sprintf("%x", out))
		for i, o := range outs {
			if fmt.Sprintf("%x", o) != was[i] {
				t.Fatalf("output of call %d changed by call %d", i, len(outs)-1)
			}
		}
		return out
	}
	p1 := gather(t, agg, cfg(), newTDS(t, row(1, "Paris", 10), row(2, "Lyon", 5)))
	p2 := gather(t, agg, cfg(), newTDS(t, row(3, "Paris", 30), row(4, "Nice", 7), row(5, "Metz", 1)))
	w1 := step(worker.Aggregate(agg, p1, EmitWhole))
	w2 := step(worker.Aggregate(agg, p2, EmitWhole))
	step(worker.Aggregate(agg, p2, EmitPerGroup))
	whole := step(worker.Aggregate(agg, append(w1, w2...), EmitWhole))
	if final := step(worker.FinalizeGroups(agg, whole, false)); len(whole) != 1 || len(final) != 4 {
		t.Errorf("%d blobs finalize to %d groups, want 1 to Paris, Lyon, Nice and Metz", len(whole), len(final))
	}
	step(worker.FilterSFW(sfw, gather(t, sfw, cfg(), newTDS(t, row(6, "Lyon", 2), row(7, "Nice", 3)))))
	step(worker.Aggregate(agg, p1, EmitWhole))
	step(worker.FinalizeGroups(agg, whole, false))
}

// TestCollectNoiseAllocBudget: a C_Noise collection allocates per call,
// not per fake — tags are read by domain position from the query's shared
// table, with one index read per true row, and ciphertexts come from the
// arena. Five times the domain must cost the same.
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
	// Measured at 8 and 10 (13 and 15 before the scratch buffers were the
	// worker's Scratch, 18 and 20 before the scan read rows in place): the
	// arena and its block, the output (which doubles twice more for 100
	// tuples than for 20) and the policy check. The slack is for pooled MAC
	// states a GC or the race detector drops; one key string per domain
	// value per row would alone add 100.
	small, large := collect(10), collect(50)
	if large > small+4 || large > 17 {
		t.Errorf("Collect allocates %v times at |domain| 10 and %v at 50; budget 17, and no growth", small, large)
	}
}

// TestDetTagTable: the shared table hands out exactly Det_Enc's bytes by
// domain position, and only ever to devices whose serving material
// computed them.
func TestDetTagTable(t *testing.T) {
	f, shared := newAdmissionFleet(t), NewPlanCache()
	device := func(id string, epoch int, km *KeyMaterial) *TDS {
		return f.device(t, id, epoch, km, f.allow, shared)
	}
	post := makePost(t, aggSQL, protocol.KindCNoise, protocol.Params{})
	post.Epoch = 1
	var domain []storage.Row
	for i := 0; i < 20; i++ {
		domain = append(domain, storage.Row{storage.Int(int64(i))})
	}
	// tagsOf is what a Collect fetches once per call; every tag must be
	// DetEncrypt's under the material's k2, at its group's position.
	tagsOf := func(d *TDS, km *KeyMaterial) [][]byte {
		m := d.matFor(post)
		tags, pos, err := d.Shared.tagTableFor(post.ID, m, domain).build(m, post)
		for i, g := range domain {
			want, _ := km.K2.DetEncrypt(storage.AppendRow(nil, g), post.AAD())
			if at := pos[string(storage.AppendRow(nil, g))]; err != nil || at != i || !bytes.Equal(tags[i], want) {
				t.Errorf("%s: group %d at %d, tag %x, want %x under its material's k2 (%v)", d.ID, i, at, tags[i], want, err)
				break
			}
		}
		return tags
	}

	first := tagsOf(device("a", 1, f.km1), f.km1)
	if second := tagsOf(device("b", 1, f.km1), f.km1); &second[3][0] != &first[3][0] {
		t.Error("second device of the epoch recomputed the table instead of sharing it")
	}
	// A migrated device serves the epoch-1 post through its grace
	// material, so it shares epoch 1's table.
	migrated := device("c", 1, f.km1)
	migrated.SetKeys(2, f.km2, f.km1)
	if got := tagsOf(migrated, f.km1); &got[3][0] != &first[3][0] {
		t.Error("grace material did not resolve its own epoch's table")
	}
	// A device stuck on another epoch computes and reads only its own.
	if got := tagsOf(device("d", 2, f.km2), f.km2); bytes.Equal(got[3], first[3]) {
		t.Error("a device on another epoch must get tags under its own k2")
	}
	if n := len(shared.queries[post.ID].tags); n != 2 {
		t.Errorf("%d tag tables, want one per material", n)
	}
	// A wave of devices of both epochs filling and reading the tables at
	// once, from empty (run under -race by check.sh).
	shared.Drop(post.ID)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		km := []*KeyMaterial{f.km1, f.km2}[g%2]
		wg.Add(1)
		go func(d *TDS) {
			defer wg.Done()
			tagsOf(d, km)
		}(device(fmt.Sprint("w", g), 1+g%2, km))
	}
	wg.Wait()
	if n := len(shared.queries[post.ID].tags); n != 2 {
		t.Errorf("%d tag tables after the wave, want one per material", n)
	}
	shared.Drop(post.ID)
	if len(shared.queries) != 0 {
		t.Errorf("%d query tables outlive the query", len(shared.queries))
	}
	// No shared cache: every call computes, same bytes.
	alone := device("e", 1, f.km1)
	alone.Shared = nil
	if a, b := tagsOf(alone, f.km1), tagsOf(alone, f.km1); &a[3][0] == &b[3][0] {
		t.Error("Shared == nil must still tag, freshly each time")
	}
}
