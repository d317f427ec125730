package faultplan

import (
	"fmt"
	"math"
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

// TestForDrawsAreIndependent guards the two-word seeding against a cheap
// seed that correlates: over sequential device × query IDs — the IDs a
// fleet really has, whose hashes differ in a few bits — each of For's five
// draws must hit its fraction within 4 sigma, and no two may correlate.
// One plan per draw (only its fraction set) reads that draw's bit
// undisturbed by the severity resolution; the stream does not depend on
// the fractions, so the five bits of a pair belong to one joint draw.
func TestForDrawsAreIndependent(t *testing.T) {
	fracs := [5]float64{0.15, 0.2, 0.25, 0.3, 0.35}
	const seed = 21
	plans := [5]*Plan{
		{Seed: seed, OfflineFraction: fracs[0]},
		{Seed: seed, DropFraction: fracs[1]},
		{Seed: seed, CorruptFraction: fracs[2]},
		{Seed: seed, SlowFraction: fracs[3]},
		{Seed: seed, CrashFraction: fracs[4]},
	}
	bit := [5]func(Behavior) bool{
		func(b Behavior) bool { return b.Offline },
		func(b Behavior) bool { return b.DropDeposit },
		func(b Behavior) bool { return b.CorruptDeposit },
		func(b Behavior) bool { return b.SlowFactor > 1 },
		func(b Behavior) bool { return b.CrashInPhase },
	}
	const devices, queries = 500, 50
	n := float64(devices * queries)
	var hits [5]float64
	var both [5][5]float64
	for q := 0; q < queries; q++ {
		qid := fmt.Sprintf("q-%06d", q)
		for d := 0; d < devices; d++ {
			id := fmt.Sprintf("tds-%05d", d)
			var drawn [5]bool
			for k := range plans {
				drawn[k] = bit[k](plans[k].For(id, qid))
			}
			for i := range drawn {
				if !drawn[i] {
					continue
				}
				hits[i]++
				for j := i + 1; j < 5; j++ {
					if drawn[j] {
						both[i][j]++
					}
				}
			}
		}
	}
	sd := func(p float64) float64 { return math.Sqrt(p * (1 - p)) }
	for i, f := range fracs {
		if z := (hits[i]/n - f) / (sd(f) / math.Sqrt(n)); math.Abs(z) > 4 {
			t.Errorf("draw %d: fraction %.4f, want %.2f (z = %.1f)", i, hits[i]/n, f, z)
		}
		for j := i + 1; j < 5; j++ {
			// Sample correlation of two independent bits is ~N(0, 1/n).
			r := (both[i][j]/n - hits[i]/n*hits[j]/n) / (sd(hits[i]/n) * sd(hits[j]/n))
			if z := r * math.Sqrt(n); math.Abs(z) > 4 {
				t.Errorf("draws %d and %d correlate: r = %.4f (z = %.1f)", i, j, r, z)
			}
		}
	}
}

func TestForDoesNotAllocate(t *testing.T) {
	p := &Plan{Seed: 21, OfflineFraction: 0.1, SlowFraction: 0.2}
	if n := testing.AllocsPerRun(1000, func() { p.For("tds-00042", "q-000007") }); n != 0 {
		t.Errorf("For allocates %v objects per call, want 0", n)
	}
}
