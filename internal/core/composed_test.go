package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/trustedcells/tcq/internal/faultplan"
	"github.com/trustedcells/tcq/internal/obs"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/rng"
	"github.com/trustedcells/tcq/internal/ssi"
	"github.com/trustedcells/tcq/internal/storage"
)

// TestComposedFaults draws composedSeeds compositions, and each of
// composedClasses must be exercised by one of them, or the seed list has
// stopped covering the fault matrix.
const composedSeeds = 96

var composedClasses = strings.Fields(`Basic S_Agg Rnf_Noise C_Noise ED_Hist
	drop-tuple/false drop-tuple/true duplicate-tuple/false duplicate-tuple/true
	replay-stale-partition/false replay-stale-partition/true forge-coverage/false forge-coverage/true
	equivocate-partitioning/false equivocate-partitioning/true
	rotation/revoke rotation/drop-bundle rotation/torn rotation/revoked-deposits
	offline drop corrupt slow crash floor-abort size-cut duration-cut audit-outvoted
	workers=0 workers=1 workers=2 workers=8 stripes=1 skip-verify`)

// cell is one point on the axes a composition must not depend on.
type cell struct {
	workers             int
	stripe1, skipVerify bool
}

// composition is what one seed draws: a protocol and query, a fault plan
// (device churn, SSI misbehaviour, a mid-query rotation), the fleet's
// enrolment and availability, a collection bound, and the cells to run on.
type composition struct {
	seed, fleet, scenario, replicas int
	qid, sql, bound                 string // bound: "", "size" or "duration"
	generated                       bool   // sql is a queryGen aggregate
	params                          protocol.Params
	size                            int64
	plan                            faultplan.Plan
	victims                         []string // revoked at the rotation point
	available, compromised          float64
	interval                        time.Duration
	cells                           []cell
	// What the plan scripts once every device is reached: the slots that
	// cannot answer, each account's size, and the ledger kind each
	// dropped, corrupt or rejected device appears under.
	exclude                     map[int]bool
	offline, deposited, refused int
	booked                      map[string]string
	grow                        func(t *testing.T, f *fixture) // data added to the fleet before the run
}

func (c *composition) String() string {
	p := c.plan
	p.SSI, p.Rotation = nil, nil
	return fmt.Sprintf("seed=%d %v %+v fleet=%d sql=%q available=%v interval=%v audit=%d compromised=%v "+
		"plan=%+v ssi=%+v rotation=%+v cells=%+v", c.seed, churnScenarios[c.scenario].kind, c.params, c.fleet,
		c.sql, c.available, c.interval, c.replicas, c.compromised, p, c.plan.SSI, c.plan.Rotation, c.cells)
}

// drawComposition draws seed's composition. Every even seed arms one SSI
// misbehaviour, cycling through all five, persistent and not; everything
// else comes from the seed's own stream.
func drawComposition(seed int) *composition {
	r := rng.New(int64(seed), "composed-faults", rng.Run)
	c := &composition{seed: seed, scenario: r.Intn(len(churnScenarios)), fleet: 20 + 10*r.Intn(3),
		qid: fmt.Sprintf("composed-%d", seed), available: []float64{0.1, 0.5, 1}[r.Intn(3)], replicas: 1}
	sc := churnScenarios[c.scenario]
	c.sql, c.params = sc.sql, sc.params
	c.params.PartitionTuples *= r.Intn(2) // or the calibrated partition size
	if sc.kind == protocol.KindRnfNoise {
		c.params.Nf = 2 * r.Intn(2)
	}
	if sc.kind != protocol.KindBasic && r.Intn(4) == 0 {
		c.sql, c.generated = (&queryGen{rng: r}).generate(), true
	}
	p := &c.plan
	p.Seed = int64(seed)
	frac := func(max float64) float64 { return max * float64(r.Intn(3)) / 2 }
	p.OfflineFraction, p.DropFraction, p.CorruptFraction = frac(0.2), frac(0.2), frac(0.2)
	p.SlowFraction, p.CrashFraction = frac(0.4), frac(0.6)
	if r.Intn(3) == 0 {
		r.Intn(2) // the retired MaxAttempts draw, still drawn so the draws after it stay put
	}
	if r.Intn(4) == 0 {
		p.CoverageFloor = []float64{0.5, 0.8}[r.Intn(2)]
	}
	if k := seed / 2 % 10; seed%2 == 0 {
		p.SSI = &faultplan.SSIScript{Persistent: k >= 5,
			Behaviors: []faultplan.SSIMisbehavior{faultplan.SSIMisbehaviors()[k%5]}}
	}
	if r.Intn(2) == 0 {
		rot := &faultplan.RotationScript{AfterDeposits: 1 + r.Intn(8), Waves: 1 + r.Intn(3),
			WaveEvery: r.Intn(5), TornRollout: r.Intn(3) == 0}
		// A replayed stale bundle reaches nobody, like a dropped one; both
		// draws stay so every seed keeps its composition.
		drop, replay := r.Intn(3) == 1, r.Intn(2) == 1
		rot.DropBundle = drop || replay
		p.Rotation = rot
		if r.Intn(2) == 0 {
			// Revoke up to two clean devices the rotation point is guaranteed
			// to precede. The trigger counts envelopes that reach the SSI,
			// which every device in the connection order sends unless it is
			// offline or drops.
			sent, n := 0, 1+r.Intn(2)
			for _, slot := range connectionOrder(c.qid, c.fleet) {
				switch b := p.For(slotID(slot), c.qid); {
				case b.Offline || b.DropDeposit:
				case sent >= rot.AfterDeposits && !b.CorruptDeposit && len(c.victims) < n:
					c.victims = append(c.victims, slotID(slot))
				default:
					sent++
				}
			}
			rot.Revoke, rot.RevokedDeposits = c.victims, len(c.victims) > 0 && r.Intn(2) == 0
		}
	}
	if r.Intn(4) == 0 { // fractions a 3-replica audit outvotes
		c.replicas, c.compromised = 3, []float64{0, 0.05, 0.1}[r.Intn(3)]
	}
	switch r.Intn(5) {
	case 0:
		c.bound, c.size = "size", int64(5+r.Intn(30))
		c.sql += fmt.Sprintf(" SIZE %d", c.size)
	case 1:
		c.bound, c.interval = "duration", time.Minute
		c.sql += fmt.Sprintf(" SIZE DURATION '%dm'", 5+r.Intn(30))
	case 2:
		c.interval = 30 * time.Second
	}
	pick := func(skipVerify bool) cell {
		workers := []int{0, 1, 2, 8}[r.Intn(4)]
		r.Intn(2) // the retired fleet axis, still drawn so the draws after it stay put
		return cell{workers, r.Intn(3) == 0, skipVerify}
	}
	for c.cells = []cell{pick(false)}; len(c.cells) < 2; {
		if x := pick(false); x != c.cells[0] {
			c.cells = append(c.cells, x)
		}
	}
	if p.SSI == nil && r.Intn(2) == 0 {
		c.cells = append(c.cells, pick(true))
	}
	return c.settle()
}

// pinned is a hand-placed composition: scenario's query over a fleet of
// the given size under plan, at the fixture's availability, on cells.
func pinned(scenario, fleet int, plan faultplan.Plan, cells ...cell) *composition {
	sc := churnScenarios[scenario]
	c := &composition{scenario: scenario, fleet: fleet, replicas: 1, qid: "pinned", sql: sc.sql,
		params: sc.params, plan: plan, available: 0.5, cells: cells}
	return c.settle()
}

// settle works out what the plan scripts once every device is reached.
func (c *composition) settle() *composition {
	p := &c.plan
	c.exclude, c.booked = map[int]bool{}, map[string]string{}
	for slot := 0; slot < c.fleet; slot++ {
		id, b := slotID(slot), p.For(slotID(slot), c.qid)
		switch revoked := slices.Contains(c.victims, id); {
		case b.Offline:
			c.offline++
		case b.DropDeposit:
			c.booked[id] = "deposit-timeout"
		case b.CorruptDeposit:
			c.booked[id] = "deposit-corrupt"
		case revoked && p.Rotation.RevokedDeposits:
			c.booked[id] = "deposit-revoked"
		case revoked:
			c.refused++
		default:
			c.deposited++
			continue
		}
		c.exclude[slot] = true
	}
	return c
}

// observed is what one run leaves that the axes must not change.
type observed struct {
	rows           []string
	m              Metrics
	rep            IntegrityReport
	abort          string // "", "coverage-floor" or an SSI detection's kind/phase
	journal, trace []byte
}

// render lays the run out one fact a line — journal, trace, outcome, rows,
// integrity report, metrics — so the first line two runs differ at is their
// first diverging journal event, if there is one. Against a SkipVerify run
// only rows and metrics, bar the integrity counters, are comparable.
func (o *observed) render(skipVerify bool) string {
	m, rep, logs := o.m, o.rep, string(o.journal)+string(o.trace)
	if skipVerify {
		m.IntegrityChecks, m.IntegrityViolations, m.IntegrityQuarantines, m.IntegrityRecovered = 0, 0, 0, 0
		rep, logs = IntegrityReport{}, ""
	}
	s := logs + fmt.Sprintf("abort %q\nrows %q\nintegrity %+v\n", o.abort, o.rows, rep)
	for v, i := reflect.ValueOf(m), 0; i < v.NumField(); i++ {
		s += fmt.Sprintf("%s %+v\n", v.Type().Field(i).Name, v.Field(i))
	}
	return s
}

// TestComposedFaults is the fault matrix as one generator and one oracle
// (DESIGN.md §7): each seed draws a composition, runs it on two or more
// axis cells, and holds every run to the same clauses. A failing seed logs
// its composition on one line and the command that reruns it alone.
func TestComposedFaults(t *testing.T) {
	tally := map[string]bool{}
	ran := 0
	for seed := 1; seed <= composedSeeds; seed++ {
		c := drawComposition(seed)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ran++
			defer func() {
				if t.Failed() {
					t.Logf("composition: %s\nrepro: go test ./internal/core -run 'TestComposedFaults/seed=%d$' -v", c, seed)
				}
			}()
			for class, on := range c.run(t) {
				tally[class] = tally[class] || on
			}
		})
	}
	for _, class := range composedClasses {
		if ran == composedSeeds && !tally[class] { // a -run filter skips the tally
			t.Errorf("no seed exercised %s: add seeds or widen the draw", class)
		}
	}
}

// run executes the composition on every cell — under an SSI script, its
// honest twin first — checks each run against the oracle and every cell
// against the first, and returns the classes the seed exercised.
func (c *composition) run(t *testing.T) (classes map[string]bool) {
	var twin *observed
	if c.plan.SSI != nil {
		twin = c.runCell(t, c.cells[0], nil)
	}
	first := c.runCell(t, c.cells[0], twin)
	for _, cl := range c.cells[1:] {
		o := c.runCell(t, cl, twin)
		diverge(t, fmt.Sprintf("%+v against %+v:", cl, c.cells[0]), first.render(cl.skipVerify), o.render(cl.skipVerify))
	}

	m, p, cut, rot := &first.m, &c.plan, c.cut(&first.m), &faultplan.RotationScript{}
	if p.Rotation != nil && ledgerCount(m, "rotation-begin") > 0 {
		rot = p.Rotation
	}
	classes = map[string]bool{churnScenarios[c.scenario].kind.String(): true,
		"rotation/revoke": len(rot.Revoke) > 0, "rotation/drop-bundle": rot.DropBundle, "rotation/torn": rot.TornRollout,
		"rotation/revoked-deposits": rot.RevokedDeposits, "offline": m.OfflineDevices > 0,
		"drop": m.DroppedDeposits > 0, "corrupt": m.CorruptDeposits > 0, "slow": p.SlowFraction > 0,
		"crash": m.Reassignments > 0, "floor-abort": first.abort == "coverage-floor", "size-cut": cut && c.bound == "size",
		"duration-cut": cut && c.bound == "duration", "audit-outvoted": c.compromised > 0 && m.AuditDetections > 0}
	if s := p.SSI; s != nil {
		classes[fmt.Sprintf("%s/%v", s.Behaviors[0], s.Persistent)] = m.IntegrityViolations > 0 ||
			strings.HasPrefix(first.abort, "no-progress")
	}
	for _, cl := range c.cells {
		classes[fmt.Sprintf("workers=%d", cl.workers)] = true
		classes["stripes=1"] = classes["stripes=1"] || cl.stripe1
		classes["skip-verify"] = classes["skip-verify"] || cl.skipVerify
	}
	return classes
}

// TestAdversaryChaosSweep pins every protocol under every SSI misbehaviour,
// striking once, at one and eight workers: the honest twin's rows or the
// typed abort the script predicts, never a quietly skewed answer.
func TestAdversaryChaosSweep(t *testing.T) {
	for i, sc := range churnScenarios {
		for _, b := range faultplan.SSIMisbehaviors() {
			t.Run(fmt.Sprintf("%v/%s", sc.kind, b), func(t *testing.T) {
				s := &faultplan.SSIScript{Behaviors: []faultplan.SSIMisbehavior{b}}
				pinned(i, 20, faultplan.Plan{Seed: 21, SSI: s}, cell{workers: 1}, cell{workers: 8}).run(t)
			})
		}
	}
}

// TestRotationMidQueryDeterminism pins a rotation that begins after the 8th
// deposit and rolls out in three waves every five, under every protocol,
// at one and eight workers: the fault-free rows, no integrity violation,
// and every wave on the ledger.
func TestRotationMidQueryDeterminism(t *testing.T) {
	for i, sc := range churnScenarios {
		t.Run(sc.kind.String(), func(t *testing.T) {
			rot := &faultplan.RotationScript{AfterDeposits: 8, Waves: 3, WaveEvery: 5}
			pinned(i, 40, faultplan.Plan{Seed: 21, Rotation: rot}, cell{workers: 1}, cell{workers: 8}).run(t)
		})
	}
}

// TestRotationOverInsertedSlots pins the same rotation over a fleet a
// third of which took rows through Engine.Insert, so their databases sit
// in regions past every other slot's: each must migrate with its newest
// rows and answer them, as the rest of the fleet does.
func TestRotationOverInsertedSlots(t *testing.T) {
	for i, sc := range churnScenarios {
		t.Run(sc.kind.String(), func(t *testing.T) {
			rot := &faultplan.RotationScript{AfterDeposits: 8, Waves: 3, WaveEvery: 5}
			c := pinned(i, 40, faultplan.Plan{Seed: 21, Rotation: rot}, cell{workers: 1}, cell{workers: 8})
			c.grow = func(t *testing.T, f *fixture) {
				for slot := 1; slot < c.fleet; slot += 3 { // detached houses, which flagshipSQL reads
					f.insert(t, slot, "Power", storage.Row{storage.Int(int64(slot)), storage.Float(44), storage.Int(int64(90 + slot%4))})
					f.insert(t, slot, "Consumer", storage.Row{storage.Int(int64(1000 + slot)), storage.Str("Brest"), storage.Str("flat")})
				}
			}
			c.run(t)
		})
	}
}

// TestAbortCoverageFloorJournal pins a fleet nine-tenths offline under a
// coverage floor of one half: the run must end in the floor's typed abort,
// settled on the ledger, the journal and the trace.
func TestAbortCoverageFloorJournal(t *testing.T) {
	plan := faultplan.Plan{Seed: 2, OfflineFraction: 0.9, CoverageFloor: 0.5}
	if !pinned(1, 40, plan, cell{}, cell{workers: 8}).run(t)["floor-abort"] {
		t.Error("a fleet nine-tenths offline met the coverage floor")
	}
}

// TestAbortMisbehaviorJournal pins persistent S_Agg attacks that must end
// in a typed abort, settled in the journal: a tuple drop, which tampers
// with the quarantined build's re-issue too (partition-multiset), and,
// with verification off, an equivocation that grows every forced final
// merge by a partition (no-progress, not a livelock).
func TestAbortMisbehaviorJournal(t *testing.T) {
	for _, tc := range []struct {
		b          faultplan.SSIMisbehavior
		skipVerify bool
	}{{faultplan.SSIDropTuple, false}, {faultplan.SSIEquivocatePartitioning, true}} {
		t.Run(string(tc.b), func(t *testing.T) {
			s := &faultplan.SSIScript{Persistent: true, Behaviors: []faultplan.SSIMisbehavior{tc.b}}
			c := pinned(1, 20, faultplan.Plan{Seed: 21, SSI: s},
				cell{workers: 1, skipVerify: tc.skipVerify}, cell{workers: 8, skipVerify: tc.skipVerify})
			if !c.run(t)[string(tc.b)+"/true"] {
				t.Errorf("the persistent %s found no build to strike", tc.b)
			}
		})
	}
}

// cut reports whether a SIZE or DURATION bound closed the collection
// before every device's deposit was in.
func (c *composition) cut(m *Metrics) bool {
	return c.bound != "" && (deviceAccounts(m, false) != nil || c.size > 0 && m.Nt >= c.size)
}

// runCell runs the composition on one cell — with the SSI script disarmed
// when twin is nil — and holds the run to the oracle.
func (c *composition) runCell(t *testing.T, cl cell, twin *observed) *observed {
	t.Helper()
	f := newFixture(t, c.fleet, func(cfg *Config) {
		cfg.CollectWorkers = cl.workers
		if cl.stripe1 { // behind a decorator, like every SSI a test injects
			cfg.SSI = struct{ ssi.Service }{ssi.NewSharded(1)}
		}
		cfg.AvailableFraction, cfg.ConnectionInterval = c.available, c.interval
		cfg.CompromisedFraction, cfg.AuditReplicas = c.compromised, c.replicas
	})
	if c.grow != nil {
		c.grow(t, f)
	}
	plan := c.plan
	if twin == nil {
		plan.SSI = nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second) // a livelock fails, not hangs
	defer cancel()
	resp, err := f.eng.Execute(ctx, Request{Querier: f.q, SQL: c.sql,
		Kind: churnScenarios[c.scenario].kind, Params: c.params, QueryID: c.qid, Faults: &plan,
		SkipVerify: cl.skipVerify})
	if resp == nil {
		t.Fatalf("%+v: no response: %v", cl, err)
	}
	o := &observed{m: *resp.Metrics, journal: resp.Journal.Bytes(), trace: traceJSONL(t, resp.Trace)}
	o.m.TLocal = 0 // a mean of identical sums
	var mis *ErrSSIMisbehavior
	switch {
	case errors.Is(err, ErrCoverageBelowFloor):
		o.abort = "coverage-floor"
	case errors.As(err, &mis):
		o.abort = mis.Kind + "/" + mis.Phase
	case err != nil:
		t.Fatalf("%+v: untyped abort: %v", cl, err)
	}
	if resp.Result != nil {
		o.rows = sortedRows(resp.Result)
	}
	if resp.Integrity != nil {
		o.rep = *resp.Integrity
		o.rep.Digest = nil // keyed over ciphertext, whose nonces are random
	}
	c.check(t, cl, plan.SSI, f, resp, err, o, twin)
	return o
}

// check holds one run to the oracle's clauses 1–4 and 6; run compares the
// cells (clause 5).
func (c *composition) check(t *testing.T, cl cell, script *faultplan.SSIScript, f *fixture,
	resp *Response, err error, o, twin *observed) {
	t.Helper()
	m, p, cut := &o.m, &c.plan, c.cut(&o.m)
	forge, struck := script.Scripts(faultplan.SSIForgeCoverage), strikes(script, churnScenarios[c.scenario].kind, twin)

	// 1. Rows are the answer over exactly the devices that can answer —
	// under an SSI script, the honest twin's — or the run ends in the typed
	// abort the composition predicts, on the ledger and the journal.
	want, either := "", false
	switch {
	case p.CoverageFloor > 0 && m.CoverageRatio < p.CoverageFloor:
		want = "coverage-floor"
	case struck != 0 && cl.skipVerify:
		// Unverified, only S_Agg's forced final merge catches a strike: a
		// persistent equivocation keeps it from reducing.
		want = "no-progress/"
	case struck != 0 && forge:
		want, either = "covering-count/collection", struck < 0
	case struck != 0 && script.Persistent:
		// A replay re-strikes the re-issue with a partition of the build
		// being retried, a no-op whenever it lands on its own slot.
		want, either = "partition-multiset/", struck < 0 || script.Scripts(faultplan.SSIReplayStalePartition)
	}
	if got := o.abort; !(got == want || want != "" && strings.HasPrefix(got, want) || either && got == "") {
		t.Fatalf("%+v: outcome %q, want %q", cl, got, want)
	}
	switch {
	case err != nil:
		if resp.Result != nil {
			t.Errorf("%+v: an aborted run returned rows", cl)
		}
		reason := abortReason(err)
		assertAbortJournal(t, resp, reason)
		if le := m.Ledger[len(m.Ledger)-1]; le.Kind != "query-abort" || le.Phase != reason {
			t.Errorf("%+v: the ledger ends in %+v, want a %s abort", cl, le, reason)
		}
	case resp.Journal.Events[len(resp.Journal.Events)-1].Kind != obs.JournalQueryEnd:
		t.Errorf("%+v: a completed run's journal does not end in query-end", cl)
	case twin != nil:
		if !reflect.DeepEqual(o.rows, twin.rows) {
			t.Errorf("%+v: rows under the SSI script\n%v\nwant the honest twin's\n%v", cl, o.rows, twin.rows)
		}
	case !cut:
		ref := referenceExcluding(t, f, c.sql, c.exclude)
		if c.generated {
			approxSameResult(t, c.sql, resp.Result, ref)
		} else if !reflect.DeepEqual(o.rows, sortedRows(ref)) {
			t.Errorf("%+v: rows\n%v\nwant the answer over the devices that can answer\n%v", cl, o.rows, sortedRows(ref))
		}
	}

	// 2. Every eligible device ends in exactly one account (at most one
	// under a bound) at the exact coverage ratio; where every device was
	// reached, each account holds exactly the devices the plan puts there.
	if err := deviceAccounts(m, c.bound != ""); err != nil {
		t.Errorf("%+v: %v", cl, err)
	}
	if m.EligibleDevices != c.fleet || m.OfflineDevices != c.offline ||
		m.CoverageRatio != float64(m.DepositedDevices)/float64(m.EligibleDevices) ||
		c.bound == "size" && cut && !forge && m.Nt != c.size {
		t.Errorf("%+v: %d eligible, %d offline, coverage %v, %d tuples", cl, m.EligibleDevices,
			m.OfflineDevices, m.CoverageRatio, m.Nt)
	}
	if !cut && !forge {
		booked := map[string]string{}
		for _, le := range m.Ledger {
			if k := le.Kind; k == "deposit-timeout" || k == "deposit-corrupt" || k == "deposit-revoked" {
				booked[le.Device] = k
			}
		}
		if m.DepositedDevices != c.deposited || m.CollectErrors != c.refused || !reflect.DeepEqual(booked, c.booked) {
			t.Errorf("%+v: %d deposited, %d refused, ledger books %v; want %d, %d, %v", cl,
				m.DepositedDevices, m.CollectErrors, booked, c.deposited, c.refused, c.booked)
		}
	}

	// T_local is a mean over the phases' work units, each at most its
	// phase's makespan, on every exit path.
	longest := time.Duration(0)
	for _, ph := range m.Phases {
		longest = max(longest, ph.Duration)
	}
	if tl := resp.Metrics.TLocal; tl > longest {
		t.Errorf("%+v: T_local %v above the longest phase's %v", cl, tl, longest)
	}

	// 3. The ledger reconciles with the engine's own tallies, and the
	// journal and the trace mirror every entry at its simulated instant.
	count := map[string]int{}
	for _, le := range m.Ledger {
		count[le.Kind]++
		crash := le.Kind == "reassign"
		if le.At.Before(obs.SimOrigin()) || (crash || strings.HasPrefix(le.Kind, "deposit-")) && le.Device == "" ||
			crash && (le.Phase == "" || !p.For(le.Device, c.qid).CrashInPhase) || le.Kind == "reassign" && le.Wait <= 0 {
			t.Errorf("%+v: ledger entry %+v is unstamped, malformed, or names a device the plan does not crash", cl, le)
		}
	}
	begin, waves := rotationLedger(p.Rotation, m.DepositedDevices+m.CorruptDeposits+count["deposit-revoked"])
	for k, n := range map[string]int{"deposit-timeout": m.DroppedDeposits, "deposit-corrupt": m.CorruptDeposits,
		"integrity-violation": m.IntegrityViolations, "integrity-quarantine": m.IntegrityQuarantines,
		"integrity-recovered": m.IntegrityRecovered, "query-abort": min(len(o.abort), 1),
		"rotation-begin": begin, "rotation-wave": waves} {
		if count[k] != n {
			t.Errorf("%+v: %d %s ledger entries, want %d", cl, count[k], k, n)
		}
	}
	// The grace window closes itself once the run that began the rotation
	// ends, unless the rollout is torn or WaveEvery left a wave pending.
	if open := begin > 0 && waves < max(p.Rotation.Waves, 1); f.eng.rotationInProgress() != open {
		t.Errorf("%+v: rotation in progress %v after the run, want %v", cl, !open, open)
	}
	unmirrored := map[string]int{} // the journal mirrors every entry whole, the trace by kind, device and instant
	for _, le := range m.Ledger {
		unmirrored[fmt.Sprintf("journal %+v", le)]++
		unmirrored[fmt.Sprint("trace ", le.Kind, " ", le.Device, " at ", le.At)]++
	}
	for _, ev := range resp.Journal.Events {
		if ev.Kind == obs.JournalLedger {
			unmirrored[fmt.Sprintf("journal %+v", ssi.LedgerEntry{Kind: ev.Detail, Phase: ev.Phase,
				Device: ev.Device, Attempt: ev.Facts.Attempt, Wait: ev.Facts.Wait, At: ev.At})]--
		}
	}
	resp.Trace.Walk(func(s *obs.Span) {
		for _, e := range s.Events {
			unmirrored[fmt.Sprint("trace ", e.Name, " ", e.Device, " at ", e.At)]--
		}
	})
	for k, n := range unmirrored {
		if n > 0 || n < 0 && strings.HasPrefix(k, "journal") {
			t.Errorf("%+v: %s is mirrored %d times too few", cl, k, n)
		}
	}

	// 4. No violation without a strike; every strike detected and a
	// tampered build quarantined; a persistent strike unrecovered; a run
	// that completes recovered every quarantined build and verified every
	// deposit.
	if rep := resp.Integrity; cl.skipVerify != (rep == nil) || rep != nil && !rep.Verified {
		t.Fatalf("%+v: integrity report %+v", cl, rep)
	}
	switch rep := o.rep; {
	case cl.skipVerify, o.abort == "coverage-floor": // nothing was verified
	case struck == 0 && (rep.Violations != 0 || rep.Quarantines != 0 || rep.Recovered != 0):
		t.Errorf("%+v: flagged without a strike: %+v", cl, rep)
	case struck > 0 && (rep.Violations == 0 || !forge && rep.Quarantines == 0):
		t.Errorf("%+v: the script struck undetected: %+v", cl, rep)
	case strings.HasPrefix(o.abort, "partition-multiset") && rep.Recovered >= rep.Quarantines,
		o.abort == "" && (rep.Recovered != rep.Quarantines || rep.Deposits != m.DepositedDevices ||
			rep.Checks == 0 || rep.Phases == 0 || len(resp.Integrity.Digest) == 0):
		t.Errorf("%+v: integrity report %+v (%d deposited) for outcome %q", cl, rep, m.DepositedDevices, o.abort)
	}

	// 6. The journal passes the schema check.
	if err := obs.CheckJournal(bytes.NewReader(o.journal)); err != nil {
		t.Errorf("%+v: journal fails the schema check: %v", cl, err)
	}
}

// strikes says whether an SSI script finds its opportunity in a run whose
// honest twin left twin: 1 yes, 0 no, -1 when the twin cannot tell.
func strikes(s *faultplan.SSIScript, kind protocol.Kind, twin *observed) int {
	if s == nil || twin.m.Nt == 0 {
		return 0
	}
	m := &twin.m
	switch replay := s.Scripts(faultplan.SSIReplayStalePartition); {
	// The forge point is one of the first three envelopes, and forging one
	// the SSI then rejects (a revoked device's) discards nothing.
	case s.Scripts(faultplan.SSIForgeCoverage) &&
		(m.DepositedDevices+m.CorruptDeposits < 3 || ledgerCount(m, "deposit-revoked") > 0):
		return -1
	// Replay needs an earlier build — Basic has one, S_Agg over a single
	// tuple only its filtering one — that no phase emptied.
	case replay && (kind == protocol.KindBasic || kind == protocol.KindSAgg && m.Nt <= 1):
		return 0
	}
	return 1
}

// rotationLedger is how many rotation-begin and rotation-wave entries a
// script leaves once ticks envelopes reached the SSI: the rotation begins
// at the AfterDeposits-th, and its waves land there (WaveEvery 0) or every
// WaveEvery envelopes after — never the last wave of a torn rollout.
func rotationLedger(rot *faultplan.RotationScript, ticks int) (begin, waves int) {
	if rot == nil || rot.AfterDeposits == 0 || ticks < rot.AfterDeposits {
		return 0, 0
	}
	waves = max(rot.Waves, 1)
	if rot.TornRollout {
		waves--
	}
	if rot.WaveEvery > 0 {
		waves = min(waves, (ticks-rot.AfterDeposits)/rot.WaveEvery)
	}
	return 1, waves
}

// diverge reports the first line at which two renderings of a run differ.
func diverge(t *testing.T, what, a, b string) {
	t.Helper()
	al, bl := strings.Split(a+"\n<end>", "\n"), strings.Split(b+"\n<end>", "\n")
	for i := 0; a != b; i++ {
		if al[i] != bl[i] {
			t.Errorf("%s first diverges at line %d:\n  %s\n  %s", what, i, al[i], bl[i])
			return
		}
	}
}
