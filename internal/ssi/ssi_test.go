package ssi

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/trustedcells/tcq/internal/accessctl"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/sqlparse"
	"github.com/trustedcells/tcq/internal/tdscrypto"
)

func post(id string, size sqlparse.SizeClause) *protocol.QueryPost {
	k1, err := tdscrypto.NewSuite(tdscrypto.DeriveKey(tdscrypto.Key{}, "k1"))
	if err != nil {
		panic(err)
	}
	p, err := protocol.NewQueryPost(id, protocol.KindSAgg, protocol.Params{},
		`SELECT COUNT(*) FROM T GROUP BY g`, k1, accessctl.Credential{}, size)
	if err != nil {
		panic(err)
	}
	return p
}

func tuple(tag string, n int) protocol.WireTuple {
	return protocol.WireTuple{Tag: []byte(tag), Ciphertext: make([]byte, n)}
}

var t0 = time.Unix(1700000000, 0)

// deposit sends tuples through the admit gate in an envelope of a fresh
// device, at the epoch post leaves unset.
func deposit(s Service, id string, tuples []protocol.WireTuple, now time.Time) (int, bool, error) {
	return s.DepositEnvelope(id, protocol.NewDeposit(id, freshDevice(), 0, 0, tuples), now)
}

// envelopes wraps each batch in an envelope of a fresh device.
func envelopes(id string, batches [][]protocol.WireTuple) []*protocol.Deposit {
	deps := make([]*protocol.Deposit, len(batches))
	for i, tuples := range batches {
		deps[i] = protocol.NewDeposit(id, freshDevice(), 0, 0, tuples)
	}
	return deps
}

var devices atomic.Int64

// freshDevice names a device no envelope named before.
func freshDevice() string { return fmt.Sprintf("dev-%d", devices.Add(1)) }

func TestPostAndQuerybox(t *testing.T) {
	s := NewSharded(1)
	p := post("q1", sqlparse.SizeClause{})
	must(t, s.PostQuery(p, t0))
	if err := s.PostQuery(p, t0); err == nil {
		t.Error("duplicate post accepted")
	}
}

func TestDepositRespectsSizeClause(t *testing.T) {
	s := NewSharded(1)
	must(t, s.PostQuery(post("q1", sqlparse.SizeClause{MaxTuples: 3}), t0))
	batch := []protocol.WireTuple{tuple("", 10), tuple("", 10), tuple("", 10), tuple("", 10)}
	accepted, done, err := deposit(s, "q1", batch, t0)
	must(t, err)
	if accepted != 3 || !done {
		t.Fatalf("accepted = %d done = %v, want 3/true", accepted, done)
	}
	// Further deposits are ignored once done.
	accepted, done, err = deposit(s, "q1", batch, t0)
	if err != nil || accepted != 0 || !done {
		t.Fatalf("post-done deposit: %d %v %v", accepted, done, err)
	}
	if got := len(s.CollectedTuples("q1")); got != 3 {
		t.Errorf("stored = %d", got)
	}
}

func TestDepositDurationBound(t *testing.T) {
	s := NewSharded(1)
	must(t, s.PostQuery(post("q1", sqlparse.SizeClause{Duration: time.Minute}), t0))
	if _, done, _ := deposit(s, "q1", []protocol.WireTuple{tuple("", 4)}, t0.Add(30*time.Second)); done {
		t.Error("done before the window closed")
	}
	if !s.CollectionDone("q1", t0.Add(61*time.Second)) {
		t.Error("not done after the window closed")
	}
	if s.CollectionDone("nope", t0) {
		t.Error("unknown query done")
	}
}

func TestDepositUnknownQuery(t *testing.T) {
	s := NewSharded(1)
	if _, _, err := deposit(s, "nope", nil, t0); err == nil {
		t.Error("deposit to unknown query accepted")
	}
}

func TestObservationLedger(t *testing.T) {
	s := NewSharded(1)
	must(t, s.PostQuery(post("q1", sqlparse.SizeClause{}), t0))
	batch := []protocol.WireTuple{tuple("a", 10), tuple("a", 10), tuple("b", 10), tuple("", 10)}
	if _, _, err := deposit(s, "q1", batch, t0); err != nil {
		t.Fatal(err)
	}
	s.ObserveRelay("q1", []protocol.WireTuple{tuple("c", 5)}, t0)
	s.ObserveRelay("nope", []protocol.WireTuple{tuple("c", 5)}, t0) // ignored
	o := s.ObservationFor("q1")
	if o.TotalTuples != 5 || o.TaggedTuples != 4 {
		t.Errorf("observation = %+v", o)
	}
	if o.TagCounts["a"] != 2 || o.TagCounts["b"] != 1 || o.TagCounts["c"] != 1 {
		t.Errorf("tag counts = %v", o.TagCounts)
	}
	// Snapshot isolation: mutating the returned map is harmless.
	o.TagCounts["a"] = 99
	if s.ObservationFor("q1").TagCounts["a"] != 2 {
		t.Error("observation snapshot not isolated")
	}
	if s.ObservationFor("nope").TagCounts == nil {
		t.Error("unknown query observation must be empty, not nil")
	}
}

func TestBytesStoredAndDrop(t *testing.T) {
	s := NewSharded(1)
	must(t, s.PostQuery(post("q1", sqlparse.SizeClause{}), t0))
	if _, _, err := deposit(s, "q1", []protocol.WireTuple{tuple("ab", 10)}, t0); err != nil {
		t.Fatal(err)
	}
	if got := s.BytesStored("q1"); got != 12 {
		t.Errorf("bytes = %d", got)
	}
	s.Drop("q1")
	if s.BytesStored("q1") != 0 || len(s.CollectedTuples("q1")) != 0 {
		t.Error("drop left state behind")
	}
}

func TestRandomPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tuples []protocol.WireTuple
	for i := 0; i < 10; i++ {
		tuples = append(tuples, tuple(fmt.Sprint(i), 4))
	}
	parts := NewSharded(1).PartitionRandom("", tuples, 3, rng)
	if len(parts) != 4 {
		t.Fatalf("partitions = %d", len(parts))
	}
	flat, seen := slices.Concat(parts...), map[string]bool{}
	for _, w := range flat {
		seen[string(w.Tag)] = true
	}
	if len(flat) != 10 || len(seen) != 10 {
		t.Errorf("coverage broken: %d tuples, %d distinct", len(flat), len(seen))
	}
	if NewSharded(1).PartitionRandom("", nil, 3, rng) != nil {
		t.Error("empty input must yield nil")
	}
	if got := NewSharded(1).PartitionRandom("", tuples, 0, rng); len(got) != 10 {
		t.Errorf("perPartition=0 must clamp to 1: %d", len(got))
	}
}

func TestTagPartitionsGroupsByTag(t *testing.T) {
	tuples := []protocol.WireTuple{
		tuple("a", 4), tuple("b", 4), tuple("a", 4), tuple("a", 4), tuple("b", 4),
	}
	parts := NewSharded(1).PartitionByTag("", tuples, 0)
	if len(parts) != 2 {
		t.Fatalf("partitions = %d, want one per tag", len(parts))
	}
	for _, p := range parts {
		first := string(p[0].Tag)
		for _, w := range p {
			if string(w.Tag) != first {
				t.Error("mixed tags in one partition")
			}
		}
	}
}

func TestTagPartitionsSplitsLargeGroups(t *testing.T) {
	var tuples []protocol.WireTuple
	for i := 0; i < 10; i++ {
		tuples = append(tuples, tuple("big", 4))
	}
	parts := NewSharded(1).PartitionByTag("", tuples, 4)
	if len(parts) != 3 {
		t.Fatalf("partitions = %d, want ceil(10/4)", len(parts))
	}
}

func TestTagPartitionsSprinklesUntagged(t *testing.T) {
	tuples := []protocol.WireTuple{
		tuple("a", 4), {Ciphertext: make([]byte, 4)}, {Ciphertext: make([]byte, 4)},
	}
	parts := NewSharded(1).PartitionByTag("", tuples, 0)
	if total := len(slices.Concat(parts...)); total != 3 {
		t.Errorf("tuples lost: %d", total)
	}
	// Only untagged input still produces one partition.
	parts = NewSharded(1).PartitionByTag("", []protocol.WireTuple{{Ciphertext: []byte{1}}}, 0)
	if len(parts) != 1 || len(parts[0]) != 1 {
		t.Errorf("untagged-only = %v", parts)
	}
	if NewSharded(1).PartitionByTag("", nil, 0) != nil {
		t.Error("empty input must yield nil")
	}
}

func TestTagPartitionsDeterministicOrder(t *testing.T) {
	tuples := []protocol.WireTuple{tuple("x", 4), tuple("y", 4), tuple("x", 4)}
	if a, b := NewSharded(1).PartitionByTag("", tuples, 0), NewSharded(1).PartitionByTag("", tuples, 0); !reflect.DeepEqual(a, b) {
		t.Errorf("nondeterministic build: %v, then %v", a, b)
	}
}

func TestDepositBatchMatchesSequentialDeposits(t *testing.T) {
	mk := func() [][]protocol.WireTuple {
		return [][]protocol.WireTuple{
			{tuple("a", 10), tuple("b", 10)},
			{tuple("a", 10)},
			{tuple("c", 10), tuple("c", 10), tuple("d", 10)},
		}
	}
	// Reference: one envelope per call.
	ref := NewSharded(1)
	must(t, ref.PostQuery(post("q1", sqlparse.SizeClause{}), t0))
	var refAccepted []int
	for _, b := range mk() {
		n, done, err := deposit(ref, "q1", b, t0)
		if err != nil || done {
			t.Fatalf("reference deposit: %d %v %v", n, done, err)
		}
		refAccepted = append(refAccepted, n)
	}
	// Batched: one call.
	s := NewSharded(1)
	must(t, s.PostQuery(post("q1", sqlparse.SizeClause{}), t0))
	accepted, doneAt, done, err := s.DepositEnvelopeBatch("q1", envelopes("q1", mk()), t0)
	must(t, err)
	if done || doneAt != -1 {
		t.Errorf("done = %v doneAt = %d, want open collection", done, doneAt)
	}
	for i := range refAccepted {
		if accepted[i].Accepted != refAccepted[i] || accepted[i].Err != nil {
			t.Errorf("accepted[%d] = %+v, want %d", i, accepted[i], refAccepted[i])
		}
	}
	if ro, so := ref.ObservationFor("q1"), s.ObservationFor("q1"); ro.TotalTuples != so.TotalTuples ||
		ro.TaggedTuples != so.TaggedTuples || ro.BytesSeen != so.BytesSeen {
		t.Errorf("ledgers diverge: %+v vs %+v", ro, so)
	}
}

func TestDepositBatchSizeCutoff(t *testing.T) {
	s := NewSharded(1)
	must(t, s.PostQuery(post("q1", sqlparse.SizeClause{MaxTuples: 3}), t0))
	batches := [][]protocol.WireTuple{
		{tuple("a", 10)},
		{tuple("b", 10), tuple("b", 10), tuple("b", 10)}, // cap hits inside this one
		{tuple("c", 10)}, // never visited
	}
	accepted, doneAt, done, err := s.DepositEnvelopeBatch("q1", envelopes("q1", batches), t0)
	must(t, err)
	if !done || doneAt != 1 {
		t.Fatalf("done = %v doneAt = %d, want cutoff at batch 1", done, doneAt)
	}
	if accepted[0].Accepted != 1 || accepted[1].Accepted != 2 || accepted[2].Accepted != 0 {
		t.Errorf("accepted = %v, want [1 2 0]", accepted)
	}
	if got := len(s.CollectedTuples("q1")); got != 3 {
		t.Errorf("stored = %d, want the SIZE cap", got)
	}
	// A later batch call is a no-op on a done collection.
	accepted, doneAt, done, err = s.DepositEnvelopeBatch("q1", envelopes("q1", batches[:1]), t0)
	if err != nil || !done || doneAt != -1 || accepted[0].Accepted != 0 {
		t.Errorf("post-done batch: %v %d %v %v", accepted, doneAt, done, err)
	}
}

func TestDepositBatchUnknownQuery(t *testing.T) {
	s := NewSharded(1)
	if _, _, _, err := s.DepositEnvelopeBatch("nope", nil, t0); err == nil {
		t.Error("batch deposit to unknown query accepted")
	}
}

func TestDepositEnvelopeRejectsReplay(t *testing.T) {
	s := NewSharded(1)
	must(t, s.PostQuery(post("q1", sqlparse.SizeClause{}), t0))

	dep := protocol.NewDeposit("q1", "tds-00001", 1, 0, []protocol.WireTuple{tuple("", 8)})
	if _, _, err := s.DepositEnvelope("q1", dep, t0); err != nil {
		t.Fatal(err)
	}
	// Same device, same attempt: a replayed envelope.
	replay := protocol.NewDeposit("q1", "tds-00001", 1, 0, []protocol.WireTuple{tuple("", 8)})
	if _, _, err := s.DepositEnvelope("q1", replay, t0); !errors.Is(err, ErrStaleDeposit) {
		t.Fatalf("replay err = %v, want ErrStaleDeposit", err)
	}
	// An earlier attempt is just as stale.
	older := protocol.NewDeposit("q1", "tds-00001", 0, 0, []protocol.WireTuple{tuple("", 8)})
	if _, _, err := s.DepositEnvelope("q1", older, t0); !errors.Is(err, ErrStaleDeposit) {
		t.Fatalf("older-attempt err = %v, want ErrStaleDeposit", err)
	}
	// A later attempt from the same device advances.
	retry := protocol.NewDeposit("q1", "tds-00001", 2, 0, []protocol.WireTuple{tuple("", 8)})
	if _, _, err := s.DepositEnvelope("q1", retry, t0); err != nil {
		t.Fatalf("advancing attempt rejected: %v", err)
	}
	// An envelope naming no device is replay-checked like any other.
	for i := 0; i < 2; i++ {
		anon := protocol.NewDeposit("q1", "", 0, 0, []protocol.WireTuple{tuple("", 8)})
		if _, _, err := s.DepositEnvelope("q1", anon, t0); (i == 1) != errors.Is(err, ErrStaleDeposit) {
			t.Fatalf("anonymous deposit %d: err = %v, want ErrStaleDeposit on the replay only", i, err)
		}
	}
}

func TestDepositEnvelopeRejectsWrongEpoch(t *testing.T) {
	s := NewSharded(1)
	p := post("q1", sqlparse.SizeClause{})
	p.Epoch = 2
	must(t, s.PostQuery(p, t0))

	stale := protocol.NewDeposit("q1", "tds-00001", 1, 1, []protocol.WireTuple{tuple("", 8)})
	if _, _, err := s.DepositEnvelope("q1", stale, t0); !errors.Is(err, ErrStaleDeposit) {
		t.Fatalf("wrong-epoch err = %v, want ErrStaleDeposit", err)
	}
	// An envelope declaring epoch 0 is as stale as any other mismatch.
	anon := protocol.NewDeposit("q1", "tds-00002", 1, 0, []protocol.WireTuple{tuple("", 8)})
	if _, _, err := s.DepositEnvelope("q1", anon, t0); !errors.Is(err, ErrStaleDeposit) {
		t.Fatalf("epoch-0 err = %v, want ErrStaleDeposit", err)
	}
	match := protocol.NewDeposit("q1", "tds-00003", 1, 2, []protocol.WireTuple{tuple("", 8)})
	if _, _, err := s.DepositEnvelope("q1", match, t0); err != nil {
		t.Fatalf("matching epoch rejected: %v", err)
	}
}

func TestDepositEnvelopeRejectsBadChecksum(t *testing.T) {
	s := NewSharded(1)
	must(t, s.PostQuery(post("q1", sqlparse.SizeClause{}), t0))
	dep := protocol.NewDeposit("q1", "tds-00001", 1, 0, []protocol.WireTuple{tuple("x", 16)})
	dep.Sum ^= 0x1
	accepted, _, err := s.DepositEnvelope("q1", dep, t0)
	if !errors.Is(err, ErrCorruptDeposit) {
		t.Fatalf("corrupt err = %v, want ErrCorruptDeposit", err)
	}
	if accepted != 0 {
		t.Fatalf("corrupt envelope stored %d tuples", accepted)
	}
	// A rejection does not burn the device's attempt counter.
	good := protocol.NewDeposit("q1", "tds-00001", 1, 0, []protocol.WireTuple{tuple("x", 16)})
	if _, _, err := s.DepositEnvelope("q1", good, t0); err != nil {
		t.Fatalf("clean retry after corruption rejected: %v", err)
	}
}

func TestDepositEnvelopeBatchMatchesSequential(t *testing.T) {
	mkDeps := func() []*protocol.Deposit {
		deps := []*protocol.Deposit{
			protocol.NewDeposit("q1", "tds-00001", 1, 0, []protocol.WireTuple{tuple("a", 8), tuple("b", 8)}),
			protocol.NewDeposit("q1", "tds-00002", 1, 0, []protocol.WireTuple{tuple("c", 8)}),
			protocol.NewDeposit("q1", "tds-00003", 1, 0, []protocol.WireTuple{tuple("d", 8)}),
		}
		deps[1].Sum ^= 0x1 // the middle envelope arrives corrupted
		return deps
	}

	seq := NewSharded(1)
	must(t, seq.PostQuery(post("q1", sqlparse.SizeClause{}), t0))
	var seqOut []DepositOutcome
	for _, dep := range mkDeps() {
		accepted, _, err := seq.DepositEnvelope("q1", dep, t0)
		seqOut = append(seqOut, DepositOutcome{Accepted: accepted, Err: err})
	}

	bat := NewSharded(1)
	must(t, bat.PostQuery(post("q1", sqlparse.SizeClause{}), t0))
	batOut, doneAt, done, err := bat.DepositEnvelopeBatch("q1", mkDeps(), t0)
	must(t, err)
	if done || doneAt != -1 {
		t.Fatalf("unbounded collection reported done=%v doneAt=%d", done, doneAt)
	}
	for i := range seqOut {
		if seqOut[i].Accepted != batOut[i].Accepted || !errors.Is(batOut[i].Err, unwrapTarget(seqOut[i].Err)) {
			t.Fatalf("envelope %d: sequential %+v, batch %+v", i, seqOut[i], batOut[i])
		}
	}
	if got, want := len(bat.CollectedTuples("q1")), len(seq.CollectedTuples("q1")); got != want {
		t.Fatalf("batch stored %d tuples, sequential %d", got, want)
	}
}

// unwrapTarget maps a wrapped typed rejection to its sentinel for
// errors.Is comparison (nil stays nil).
func unwrapTarget(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrStaleDeposit):
		return ErrStaleDeposit
	case errors.Is(err, ErrCorruptDeposit):
		return ErrCorruptDeposit
	default:
		return err
	}
}

func TestRecoveryLedger(t *testing.T) {
	s := NewSharded(1)
	must(t, s.PostQuery(post("q1", sqlparse.SizeClause{}), t0))
	if got := s.LedgerFor("q1"); len(got) != 0 {
		t.Fatalf("fresh query has ledger %v", got)
	}
	e1 := LedgerEntry{Kind: "deposit-timeout", Phase: "collection", Device: "tds-00001", Attempt: 1, Wait: time.Second}
	e2 := LedgerEntry{Kind: "reassign", Phase: "aggregate-1", Device: "tds-00002", Attempt: 2, Wait: 2 * time.Second}
	s.Record("q1", e1)
	s.Record("q1", e2)
	s.Record("missing", e1) // unknown queries are ignored, not created

	got := s.LedgerFor("q1")
	if len(got) != 2 || got[0] != e1 || got[1] != e2 {
		t.Fatalf("ledger = %+v", got)
	}
	got[0].Kind = "mutated"
	if s.LedgerFor("q1")[0].Kind != "deposit-timeout" {
		t.Fatal("LedgerFor handed out the internal slice")
	}
	if s.LedgerFor("missing") != nil {
		t.Fatal("unknown query grew a ledger")
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
