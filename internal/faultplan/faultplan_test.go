package faultplan

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

func TestNilAndZeroPlansScriptNothing(t *testing.T) {
	var nilPlan *Plan
	for _, p := range []*Plan{nilPlan, {}} {
		b := p.For("tds-00001", "q-000001")
		if b.Offline || b.DropDeposit || b.CorruptDeposit || b.CrashInPhase {
			t.Errorf("plan %v scripted faults: %+v", p, b)
		}
		if b.SlowFactor != 1 {
			t.Errorf("slow factor = %v, want 1", b.SlowFactor)
		}
	}
}

func TestForIsPureAndOrderFree(t *testing.T) {
	p := &Plan{Seed: 99, OfflineFraction: 0.2, DropFraction: 0.2,
		CorruptFraction: 0.2, SlowFraction: 0.3, CrashFraction: 0.25}
	a1 := p.For("tds-00007", "q-000001")
	// Interleave other evaluations; the repeat draw must not move.
	p.For("tds-00008", "q-000001")
	p.For("tds-00007", "q-000002")
	a2 := p.For("tds-00007", "q-000001")
	if a1 != a2 {
		t.Errorf("behavior not pure: %+v vs %+v", a1, a2)
	}
}

func TestBehaviorsVaryAcrossDevicesAndQueries(t *testing.T) {
	p := &Plan{Seed: 5, OfflineFraction: 0.5}
	diffDevice, diffQuery := false, false
	base := p.For("tds-00000", "q-000001")
	for i := 1; i < 64; i++ {
		if p.For(deviceID(i), "q-000001") != base {
			diffDevice = true
		}
		if p.For("tds-00000", queryID(i)) != base {
			diffQuery = true
		}
	}
	if !diffDevice || !diffQuery {
		t.Errorf("behaviors constant: device-varies=%v query-varies=%v", diffDevice, diffQuery)
	}
}

func deviceID(i int) string { return "tds-" + string(rune('a'+i%26)) + string(rune('a'+i/26)) }
func queryID(i int) string  { return "q-" + string(rune('a'+i%26)) + string(rune('a'+i/26)) }

func TestFractionsAreRoughlyHonored(t *testing.T) {
	p := &Plan{Seed: 11, OfflineFraction: 0.3}
	n, offline := 2000, 0
	for i := 0; i < n; i++ {
		if p.For(deviceID(i)+queryID(i*7), "q-000001").Offline {
			offline++
		}
	}
	got := float64(offline) / float64(n)
	if got < 0.2 || got > 0.4 {
		t.Errorf("offline fraction = %.3f, want ~0.3", got)
	}
}

func TestCollectionOutcomesMutuallyExclusive(t *testing.T) {
	p := &Plan{Seed: 3, OfflineFraction: 0.9, DropFraction: 0.9, CorruptFraction: 0.9}
	for i := 0; i < 200; i++ {
		b := p.For(deviceID(i), "q-000009")
		states := 0
		for _, s := range []bool{b.Offline, b.DropDeposit, b.CorruptDeposit} {
			if s {
				states++
			}
		}
		if states > 1 {
			t.Fatalf("device %d in %d collection states at once: %+v", i, states, b)
		}
		if b.Offline && b.SlowFactor != 1 {
			t.Fatalf("offline device scripted slow: %+v", b)
		}
	}
}

func TestBackoffIsCappedExponential(t *testing.T) {
	p := &Plan{BackoffBase: 100 * time.Millisecond, BackoffCap: 500 * time.Millisecond}
	want := []time.Duration{
		100 * time.Millisecond, // attempt 1
		200 * time.Millisecond,
		400 * time.Millisecond,
		500 * time.Millisecond, // capped
		500 * time.Millisecond,
	}
	for i, w := range want {
		if got := p.Backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	if got := p.Backoff(0); got != 100*time.Millisecond {
		t.Errorf("backoff clamps attempt to 1: %v", got)
	}
	// Defaults on a nil plan.
	var nilPlan *Plan
	if got := nilPlan.Backoff(1); got != DefaultBackoffBase {
		t.Errorf("nil backoff = %v", got)
	}
	if got := nilPlan.RetryWait(1); got != DefaultPhaseTimeout+DefaultBackoffBase {
		t.Errorf("nil retry wait = %v", got)
	}
	if got := nilPlan.DepositWait(); got != DefaultDepositTimeout {
		t.Errorf("nil deposit wait = %v", got)
	}
}

func TestRetryWaitComposesTimeoutAndBackoff(t *testing.T) {
	p := &Plan{PhaseTimeout: time.Second, BackoffBase: 100 * time.Millisecond,
		BackoffCap: time.Second}
	if got := p.RetryWait(2); got != time.Second+200*time.Millisecond {
		t.Errorf("retry wait = %v", got)
	}
}

func TestSSIScriptMembership(t *testing.T) {
	var nilScript *SSIScript
	if nilScript.Scripts(SSIDropTuple) {
		t.Fatal("nil script claims to script an attack")
	}
	s := &SSIScript{Behaviors: []SSIMisbehavior{SSIDropTuple, SSIForgeCoverage}}
	if !s.Scripts(SSIDropTuple) || !s.Scripts(SSIForgeCoverage) {
		t.Fatal("script denies its own behaviors")
	}
	if s.Scripts(SSIReplayStalePartition) {
		t.Fatal("script claims an unscripted behavior")
	}
	all := SSIMisbehaviors()
	if len(all) != 5 {
		t.Fatalf("expected 5 scripted attacks, got %d", len(all))
	}
	seen := map[SSIMisbehavior]bool{}
	for _, b := range all {
		if seen[b] {
			t.Fatalf("duplicate misbehavior %q", b)
		}
		seen[b] = true
	}
}

// forFresh is For as it was before the generator was pooled: one freshly
// allocated source per call. The pooled implementation must script exactly
// what it scripted.
func forFresh(p *Plan, deviceID, queryID string) Behavior {
	rng := rand.New(rand.NewSource(p.Seed ^ int64(fnv(deviceID)) ^ int64(fnv(queryID))<<17 ^ 0xfa17))
	offline := rng.Float64() < p.OfflineFraction
	drop := rng.Float64() < p.DropFraction
	corrupt := rng.Float64() < p.CorruptFraction
	slow := rng.Float64() < p.SlowFraction
	b := Behavior{SlowFactor: 1, CrashInPhase: rng.Float64() < p.CrashFraction}
	switch {
	case offline:
		b.Offline = true
	case drop:
		b.DropDeposit = true
	case corrupt:
		b.CorruptDeposit = true
	}
	if slow && !b.Offline {
		b.SlowFactor = DefaultSlowFactor
	}
	return b
}

func TestForMatchesFreshSource(t *testing.T) {
	triples := 0
	for seed := int64(-3); seed < 9; seed++ {
		p := &Plan{Seed: seed * 7919, OfflineFraction: 0.15, DropFraction: 0.2,
			CorruptFraction: 0.25, SlowFraction: 0.3, CrashFraction: 0.35}
		for dev := 0; dev < 16; dev++ {
			for q := 0; q < 8; q++ {
				id, qid := fmt.Sprintf("tds-%05d", dev*37), fmt.Sprintf("q-%06d", q)
				if got, want := p.For(id, qid), forFresh(p, id, qid); got != want {
					t.Fatalf("seed %d %s %s: pooled %+v, fresh source %+v", p.Seed, id, qid, got, want)
				}
				triples++
			}
		}
	}
	if triples < 1000 {
		t.Fatalf("only %d triples compared", triples)
	}
}

func TestForDoesNotAllocate(t *testing.T) {
	p := &Plan{Seed: 21, OfflineFraction: 0.1, SlowFraction: 0.2}
	p.For("tds-00000", "q-000000") // fill the pool
	if n := testing.AllocsPerRun(1000, func() { p.For("tds-00042", "q-000007") }); n != 0 {
		t.Errorf("For allocates %v objects per call, want 0", n)
	}
}
