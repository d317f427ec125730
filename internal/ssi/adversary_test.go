package ssi

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/trustedcells/tcq/internal/faultplan"
	"github.com/trustedcells/tcq/internal/protocol"
)

// advFixture posts one query on a fresh honest SSI and returns it with a
// small deposited tuple set.
func advFixture(t *testing.T) (*SSI, []protocol.WireTuple) {
	t.Helper()
	s := New()
	post := &protocol.QueryPost{ID: "q-adv", PostedAt: time.Unix(0, 0)}
	if err := s.PostQuery(post, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	tuples := make([]protocol.WireTuple, 0, 6)
	for _, b := range []byte("abcdef") {
		tuples = append(tuples, protocol.WireTuple{
			Tag:        []byte{b},
			Ciphertext: []byte{b, b, b},
			Digest:     []byte{b ^ 0xff},
		})
	}
	return s, tuples
}

// multiset flattens a partition build into tuple-count form.
func multiset(parts [][]protocol.WireTuple) map[string]int {
	m := make(map[string]int)
	for _, p := range parts {
		for _, w := range p {
			m[string(w.Tag)+"|"+string(w.Ciphertext)+"|"+string(w.Digest)]++
		}
	}
	return m
}

func script(bs ...faultplan.SSIMisbehavior) *faultplan.SSIScript {
	return &faultplan.SSIScript{Behaviors: bs}
}

// TestAdversaryTampersEveryPartitionBehavior asserts each partition attack
// produces a build whose tuple multiset differs from the honest one — the
// exact signal the engine's verifier keys on — and that the inner SSI's
// stashed build stays honest for the retry path.
func TestAdversaryTampersEveryPartitionBehavior(t *testing.T) {
	for _, b := range []faultplan.SSIMisbehavior{
		faultplan.SSIDropTuple, faultplan.SSIDuplicateTuple,
		faultplan.SSIEquivocatePartitioning,
	} {
		s, tuples := advFixture(t)
		a := NewAdversary(s, script(b), 21, "q-adv")
		honest := multiset([][]protocol.WireTuple{tuples})
		got := a.PartitionRandom("q-adv", tuples, 2, rand.New(rand.NewSource(1)))
		if reflect.DeepEqual(multiset(got), honest) {
			t.Errorf("%s: tampered build has the honest multiset", b)
		}
		if len(a.Strikes()) != 1 {
			t.Errorf("%s: strikes = %v, want exactly one", b, a.Strikes())
		}
		// Quarantine path: the re-issued build must be clean again once the
		// one-shot behavior has fired.
		if re, _ := a.Repartition("q-adv"); !reflect.DeepEqual(multiset(re), honest) {
			t.Errorf("%s: re-issued build still tampered: %v", b, multiset(re))
		}
	}
}

// TestAdversaryReplayNeedsStaleMaterial asserts replay-stale-partition is
// a no-op on the first build (nothing stale exists yet) and substitutes
// old ciphertext on the second.
func TestAdversaryReplayNeedsStaleMaterial(t *testing.T) {
	s, tuples := advFixture(t)
	a := NewAdversary(s, script(faultplan.SSIReplayStalePartition), 21, "q-adv")
	first := a.PartitionRandom("q-adv", tuples, 2, rand.New(rand.NewSource(1)))
	if !reflect.DeepEqual(multiset(first), multiset([][]protocol.WireTuple{tuples})) {
		t.Fatalf("replay fired with no stale material: %v", a.Strikes())
	}
	// Second build over fresh tuples: the adversary swaps in a partition
	// from the first build.
	fresh := make([]protocol.WireTuple, 0, 4)
	for _, b := range []byte("wxyz") {
		fresh = append(fresh, protocol.WireTuple{Tag: []byte{b}, Ciphertext: []byte{b, 0, b}})
	}
	second := a.PartitionByTag("q-adv", fresh, 0)
	if reflect.DeepEqual(multiset(second), multiset([][]protocol.WireTuple{fresh})) {
		t.Fatalf("replay did not fire on the second build; strikes %v", a.Strikes())
	}
	if len(a.Strikes()) != 1 {
		t.Fatalf("strikes = %v, want exactly one replay", a.Strikes())
	}
}

// TestAdversaryForgesCoverage asserts the struck envelope reports full
// acceptance while its tuples never reach storage, and that the carried
// commitment still belongs to the original (non-empty) deposit.
func TestAdversaryForgesCoverage(t *testing.T) {
	s, tuples := advFixture(t)
	a := NewAdversary(s, script(faultplan.SSIForgeCoverage), 21, "q-adv")
	claimed := 0
	now := time.Unix(0, 0)
	for i, w := range tuples {
		dep := protocol.NewDeposit("q-adv", string(rune('a'+i)), 1, 0, []protocol.WireTuple{w})
		dep.Commit = []byte("commitment-of-" + dep.DeviceID)
		out, _, _, err := a.DepositEnvelopeBatch("q-adv", []*protocol.Deposit{dep}, now)
		if err != nil || out[0].Err != nil {
			t.Fatal(err, out)
		}
		claimed += out[0].Accepted
	}
	stored := len(s.CollectedTuples("q-adv"))
	if claimed != len(tuples) {
		t.Fatalf("claimed coverage %d, want %d (forgery must be invisible upstream)", claimed, len(tuples))
	}
	if stored != len(tuples)-1 {
		t.Fatalf("stored %d tuples, want %d: exactly one deposit forged", stored, len(tuples)-1)
	}
	if len(a.Strikes()) != 1 {
		t.Fatalf("strikes = %v, want exactly one forge", a.Strikes())
	}
}

// TestAdversaryDeterministic asserts two adversaries with the same (seed,
// query ID) fire identical strikes against identical call sequences, and a
// different seed moves the strike points.
func TestAdversaryDeterministic(t *testing.T) {
	runSeq := func(seed int64) []string {
		s, tuples := advFixture(t)
		a := NewAdversary(s, script(faultplan.SSIMisbehaviors()...), seed, "q-adv")
		now := time.Unix(0, 0)
		for i, w := range tuples {
			dep := protocol.NewDeposit("q-adv", string(rune('a'+i)), 1, 0, []protocol.WireTuple{w})
			if _, _, _, err := a.DepositEnvelopeBatch("q-adv", []*protocol.Deposit{dep}, now); err != nil {
				t.Fatal(err)
			}
		}
		a.PartitionRandom("q-adv", tuples, 2, rand.New(rand.NewSource(1)))
		a.PartitionByTag("q-adv", tuples, 0)
		return a.Strikes()
	}
	first, second := runSeq(21), runSeq(21)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("same seed diverged:\n%v\n%v", first, second)
	}
	if len(first) == 0 {
		t.Fatal("full script fired no strikes")
	}
}

// TestAdversaryPersistentRestrikes asserts a persistent script tampers
// with the quarantine re-issue too, so the engine's single retry cannot
// save the run.
func TestAdversaryPersistentRestrikes(t *testing.T) {
	s, tuples := advFixture(t)
	a := NewAdversary(s, &faultplan.SSIScript{
		Behaviors:  []faultplan.SSIMisbehavior{faultplan.SSIDropTuple},
		Persistent: true,
	}, 21, "q-adv")
	honest := multiset([][]protocol.WireTuple{tuples})
	a.PartitionRandom("q-adv", tuples, 2, rand.New(rand.NewSource(1)))
	if re, _ := a.Repartition("q-adv"); reflect.DeepEqual(multiset(re), honest) {
		t.Fatal("persistent adversary handed out an honest re-issue")
	}
	if len(a.Strikes()) != 2 {
		t.Fatalf("strikes = %v, want two (build + rebuild)", a.Strikes())
	}
}
