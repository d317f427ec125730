package ssi

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/trustedcells/tcq/internal/faultplan"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/sqlparse"
)

// TestTupleStoreChunks: the spillable deposit store must agree with the
// flat view across chunk boundaries — counts, windowed ranges and the
// materialized slice all describe the same sequence, in deposit order.
func TestTupleStoreChunks(t *testing.T) {
	s := New()
	if err := s.PostQuery(post("q1", sqlparse.SizeClause{}), t0); err != nil {
		t.Fatal(err)
	}
	// Three deposits straddling the 4096-tuple chunk size.
	sizes := []int{3000, 3000, 4200}
	total := 0
	for d, n := range sizes {
		batch := make([]protocol.WireTuple, n)
		for i := range batch {
			batch[i] = tuple(fmt.Sprintf("t-%d-%d", d, i), 4)
		}
		accepted, _, err := deposit(s, "q1", batch, t0)
		if err != nil {
			t.Fatal(err)
		}
		total += accepted
	}
	if got := s.CollectedCount("q1"); got != total {
		t.Fatalf("CollectedCount = %d, want %d", got, total)
	}
	all := s.CollectedTuples("q1")
	if len(all) != total {
		t.Fatalf("CollectedTuples = %d, want %d", len(all), total)
	}
	// Order must be deposit order.
	if string(all[0].Tag) != "t-0-0" || string(all[total-1].Tag) != "t-2-4199" {
		t.Errorf("order: first %q last %q", all[0].Tag, all[total-1].Tag)
	}
	// Windows, including ones that straddle chunk boundaries exactly.
	windows := [][2]int{{0, total}, {0, 1}, {4095, 4097}, {4096, 8192}, {8191, 8193}, {total - 1, total}, {5, 5}}
	for _, w := range windows {
		got := s.CollectedRange("q1", w[0], w[1])
		if len(got) != w[1]-w[0] {
			t.Fatalf("range [%d,%d): len %d", w[0], w[1], len(got))
		}
		for i := range got {
			if string(got[i].Tag) != string(all[w[0]+i].Tag) {
				t.Fatalf("range [%d,%d): element %d = %q, want %q",
					w[0], w[1], i, got[i].Tag, all[w[0]+i].Tag)
			}
		}
	}
	// Out-of-bounds requests clamp instead of panicking.
	if got := s.CollectedRange("q1", total-2, total+50); len(got) != 2 {
		t.Errorf("clamped range: len %d, want 2", len(got))
	}
	if got := s.CollectedRange("q1", -3, 2); len(got) != 2 {
		t.Errorf("negative start: len %d, want 2", len(got))
	}
	if got := s.CollectedRange("nope", 0, 5); got != nil {
		t.Errorf("unknown query range: %v", got)
	}
}

// TestStoreViewsAreSnapshots: reads of the store are views, so the
// contract is on the store — append-only, tuples immutable. A view taken
// before later deposits reads the same tuples after them (also while a
// goroutine is depositing: run under -race), an append through a view can
// never reach the store, and windows inside a chunk, ending at its edge
// and straddling it all equal the reference copy.
func TestStoreViewsAreSnapshots(t *testing.T) {
	s := New()
	must(t, s.PostQuery(post("q1", sqlparse.SizeClause{}), t0))
	var ref []protocol.WireTuple // what a copying store would hold
	deposit := func(n int) {
		batch := make([]protocol.WireTuple, n)
		for i := range batch {
			batch[i] = tuple(fmt.Sprintf("t-%d", len(ref)+i), 4)
		}
		ref = append(ref, batch...)
		if accepted, _, err := deposit(s, "q1", batch, t0); err != nil || accepted != n {
			t.Fatalf("deposit: accepted %d of %d: %v", accepted, n, err)
		}
	}
	deposit(tupleChunk - 100)

	type window struct{ start, end int }
	early := []window{{0, 10}, {50, tupleChunk - 100}, {0, tupleChunk - 100}}
	views := make([][]protocol.WireTuple, len(early))
	want := make([][]protocol.WireTuple, len(early))
	for i, w := range early {
		views[i] = s.CollectedRange("q1", w.start, w.end)
		want[i] = append([]protocol.WireTuple(nil), ref[w.start:w.end]...)
	}
	all := s.CollectedTuples("q1") // one chunk: a view too
	build, _ := s.StreamBuild("q1", 1000)

	// Later deposits land in the same chunk, then in new ones, while a
	// reader keeps walking the early views.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < 50; k++ {
			for i, v := range views {
				if !reflect.DeepEqual(v, want[i]) {
					t.Errorf("view %v changed under a concurrent deposit", early[i])
					return
				}
			}
		}
	}()
	deposit(100)
	deposit(tupleChunk + 7)
	<-done

	for i, v := range views {
		if !reflect.DeepEqual(v, want[i]) {
			t.Errorf("view %v changed after later deposits", early[i])
		}
	}
	if !reflect.DeepEqual(all, ref[:tupleChunk-100]) {
		t.Error("CollectedTuples view changed after later deposits")
	}
	flat := []protocol.WireTuple{}
	for _, p := range build {
		flat = append(flat, p...)
	}
	if !reflect.DeepEqual(flat, ref[:tupleChunk-100]) {
		t.Error("StreamBuild partitions changed after later deposits")
	}

	// An append through a view must reallocate: the slot behind the view
	// belongs to the store (it already holds the next deposit's tuple).
	for i, v := range views {
		if cap(v) != len(v) {
			t.Fatalf("view %v has capacity %d beyond its length %d", early[i], cap(v), len(v))
		}
		_ = append(v, tuple("intruder", 1))
	}
	_ = append(build[0], tuple("intruder", 1))
	if got := s.CollectedRange("q1", 0, len(ref)); !reflect.DeepEqual(got, ref) {
		t.Fatal("an append through a view wrote into the store")
	}

	// Windows inside a chunk, ending at its boundary, starting at it, and
	// straddling one or two boundaries.
	for _, w := range []window{
		{5, 9}, {tupleChunk - 3, tupleChunk}, {0, tupleChunk}, {tupleChunk, tupleChunk + 5},
		{tupleChunk - 1, tupleChunk + 1}, {tupleChunk - 2, 2*tupleChunk + 3}, {0, len(ref)},
	} {
		got := s.CollectedRange("q1", w.start, w.end)
		if !reflect.DeepEqual(got, ref[w.start:w.end]) {
			t.Errorf("window %v differs from the reference copy", w)
		}
		if cap(got) != len(got) {
			t.Errorf("window %v: capacity %d beyond length %d", w, cap(got), len(got))
		}
	}
}

// tagPartitionsReference is the map-of-slices TagPartitions this package
// shipped before the flat build, kept as the oracle — with one repair: a
// split group's windows are capacity-clipped. Unclipped, sprinkling an
// untagged tuple onto a window appended into the group's backing array
// and overwrote the first tuple of the next window.
func tagPartitionsReference(tuples []protocol.WireTuple, maxPerPartition int) [][]protocol.WireTuple {
	if len(tuples) == 0 {
		return nil
	}
	if maxPerPartition <= 0 {
		maxPerPartition = len(tuples)
	}
	byTag := make(map[string][]protocol.WireTuple)
	var order []string
	var untagged []protocol.WireTuple
	for _, w := range tuples {
		if len(w.Tag) == 0 {
			untagged = append(untagged, w)
			continue
		}
		k := string(w.Tag)
		if _, seen := byTag[k]; !seen {
			order = append(order, k)
		}
		byTag[k] = append(byTag[k], w)
	}
	var out [][]protocol.WireTuple
	for _, k := range order {
		group := byTag[k]
		for start := 0; start < len(group); start += maxPerPartition {
			end := min(start+maxPerPartition, len(group))
			out = append(out, group[start:end:end])
		}
	}
	if len(untagged) > 0 {
		if len(out) == 0 {
			out = append(out, nil)
		}
		for i, w := range untagged {
			out[i%len(out)] = append(out[i%len(out)], w)
		}
	}
	return out
}

// TestTagPartitionsMatchesReference: same first-appearance order, same
// splits, same round-robin of untagged tuples as the oracle, over random
// tag counts, partition caps and untagged sprinkling.
func TestTagPartitionsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(200)
		tags := 1 + rng.Intn(12)
		untaggedShare := []float64{0, 0.1, 0.5, 1}[rng.Intn(4)]
		tuples := make([]protocol.WireTuple, n)
		for i := range tuples {
			tag := fmt.Sprintf("g%d", rng.Intn(tags))
			if rng.Float64() < untaggedShare {
				tag = ""
			}
			tuples[i] = tuple(tag, 1)
			tuples[i].Ciphertext[0] = byte(i) // tell equal tags apart
			if tag == "" {
				tuples[i].Tag = nil
			}
		}
		for _, per := range []int{0, 1, 7, n} {
			got, want := New().PartitionByTag("", tuples, per), tagPartitionsReference(tuples, per)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (n=%d tags=%d untagged=%.1f per=%d):\ngot  %v\nwant %v",
					trial, n, tags, untaggedShare, per, partLens(got), partLens(want))
			}
			for i, p := range got {
				if cap(p) != len(p) {
					t.Fatalf("trial %d: partition %d has capacity %d beyond length %d", trial, i, cap(p), len(p))
				}
			}
		}
	}
}

// TestRepartitionAfterOuterTamper: the stash shares the partitions'
// tuples with the build it handed out but not the outer slice, so
// whatever the holder does to its copy — drop, swap, grow a partition —
// the re-issue is the build as computed.
func TestRepartitionAfterOuterTamper(t *testing.T) {
	builds := map[string]func(*SSI, []protocol.WireTuple) [][]protocol.WireTuple{
		"random": func(s *SSI, in []protocol.WireTuple) [][]protocol.WireTuple {
			return s.PartitionRandom("q1", in, 4, rand.New(rand.NewSource(3)))
		},
		"by-tag": func(s *SSI, in []protocol.WireTuple) [][]protocol.WireTuple {
			return s.PartitionByTag("q1", in, 4)
		},
		"stream": func(s *SSI, _ []protocol.WireTuple) [][]protocol.WireTuple {
			parts, _ := s.StreamBuild("q1", 4)
			return parts
		},
	}
	for name, build := range builds {
		s := New()
		must(t, s.PostQuery(post("q1", sqlparse.SizeClause{}), t0))
		in := make([]protocol.WireTuple, 30)
		for i := range in {
			in[i] = tuple(fmt.Sprintf("g%d", i%3), 2)
			in[i].Ciphertext[0] = byte(i)
		}
		if _, _, err := deposit(s, "q1", in, t0); err != nil {
			t.Fatal(err)
		}
		parts := build(s, in)
		honest := make([][]protocol.WireTuple, len(parts))
		for i, p := range parts {
			honest[i] = append([]protocol.WireTuple(nil), p...)
		}
		parts[0], parts[1] = parts[1], nil
		parts[2] = append(parts[2], tuple("intruder", 1)) // must reallocate, not spill into parts[3]
		parts = append(parts[:3], parts[4:]...)
		if re, _ := s.Repartition("q1"); !reflect.DeepEqual(re, honest) {
			t.Errorf("%s: re-issue differs from the honest build: %v, want %v", name, partLens(re), partLens(honest))
		}
		// The re-issue is itself only an outer copy: tampering with it
		// must not reach the next one either.
		re, _ := s.Repartition("q1")
		re[0] = nil
		if again, _ := s.Repartition("q1"); !reflect.DeepEqual(again, honest) {
			t.Errorf("%s: second re-issue differs from the honest build", name)
		}
	}
}

// TestObserveAllocBudget: the curious ledger counts a tag it has seen
// before without allocating — the deposit path observes every tuple.
func TestObserveAllocBudget(t *testing.T) {
	s := New()
	must(t, s.PostQuery(post("q1", sqlparse.SizeClause{}), t0))
	st := s.stripeOf("q1").queries["q1"]
	w := tuple("a-repeated-tag", 8)
	s.observe(st, &w)
	if n := testing.AllocsPerRun(100, func() { s.observe(st, &w) }); n != 0 {
		t.Errorf("observe allocates %v times on a repeated tag, want 0", n)
	}
	if got := s.ObservationFor("q1").TagCounts["a-repeated-tag"]; got != 102 {
		t.Errorf("tag count = %d, want 102", got)
	}
}

// TestDepositDoesNotRetainTuples pins the clause of the Service contract
// the collection walk's reused slot buffers rest on: a deposit's tuple
// slice is the depositor's again once the call returns. The caller
// overwrites every slice it deposited — after the deposits, after a build
// and after the adversary stashed one — and the stored sequence, the
// honest SSI's lastBuild and the Adversary's stale stash still read the
// tuples as deposited.
func TestDepositDoesNotRetainTuples(t *testing.T) {
	for name, wrap := range map[string]func(*SSI) Service{
		"honest":    func(s *SSI) Service { return s },
		"adversary": func(s *SSI) Service { return NewAdversary(s, script(faultplan.SSIReplayStalePartition), 7, "q1") },
	} {
		inner := New()
		svc := wrap(inner)
		must(t, svc.PostQuery(post("q1", sqlparse.SizeClause{}), t0))
		bufs := make([][]protocol.WireTuple, 4)
		var want []protocol.WireTuple
		for b := range bufs {
			for i := 0; i < 5+b; i++ {
				w := tuple(fmt.Sprintf("g%d", i%3), 2)
				w.Ciphertext[0], w.Ciphertext[1] = byte(b), byte(i)
				bufs[b] = append(bufs[b], w)
			}
			want = append(want, bufs[b]...)
		}
		scribble := func() {
			for _, buf := range bufs {
				for i := range buf {
					buf[i] = tuple("overwritten", 3)
				}
			}
		}
		for b, buf := range bufs[:2] {
			if _, _, err := svc.DepositEnvelope("q1", protocol.NewDeposit("q1", fmt.Sprint("d", b), 1, 0, buf), t0); err != nil {
				t.Fatal(err)
			}
		}
		deps := []*protocol.Deposit{
			protocol.NewDeposit("q1", "d2", 1, 0, bufs[2]), protocol.NewDeposit("q1", "d3", 1, 0, bufs[3]),
		}
		if _, _, _, err := svc.DepositEnvelopeBatch("q1", deps, t0); err != nil {
			t.Fatal(err)
		}
		scribble()
		if got := svc.CollectedTuples("q1"); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the store reads the caller's overwritten slice", name)
		}
		svc.StreamBuild("q1", 4) // the inner SSI stashes the build, the adversary its stale copy
		scribble()
		if re, _ := inner.Repartition("q1"); !reflect.DeepEqual(slices.Concat(re...), want) {
			t.Errorf("%s: the stashed build reads the caller's overwritten slice", name)
		}
		if a, ok := svc.(*Adversary); ok && !reflect.DeepEqual(slices.Concat(a.prev...), want) {
			t.Errorf("%s: the adversary's stale stash reads the caller's overwritten slice", name)
		}
	}
}
