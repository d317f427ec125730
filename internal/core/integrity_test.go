package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/trustedcells/tcq/internal/faultplan"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/ssi"
)

// ssiScript wraps one misbehavior into a fault plan that scripts no device
// churn: every deviation from the honest run is the SSI's doing.
func ssiScript(persistent bool, bs ...faultplan.SSIMisbehavior) *faultplan.Plan {
	return &faultplan.Plan{
		Seed: 21,
		SSI:  &faultplan.SSIScript{Behaviors: bs, Persistent: persistent},
	}
}

// TestIntegrityHonestPathNoFalsePositives runs every protocol through the
// reference churn plan with verification on (the default) and requires a
// clean bill: checks ran, nothing was flagged, and the result equals the
// unverified run's bit for bit. Zero false positives is the contract that
// lets verification default to on.
func TestIntegrityHonestPathNoFalsePositives(t *testing.T) {
	for _, sc := range churnScenarios {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%v/workers=%d", sc.kind, workers), func(t *testing.T) {
				run := func(skip bool) (*Response, error) {
					f := newFixture(t, 40, func(c *Config) { c.CollectWorkers = workers })
					return f.eng.Execute(context.Background(), Request{
						Querier: f.q, SQL: sc.sql, Kind: sc.kind, Params: sc.params,
						Faults: churnPlan(), SkipVerify: skip,
					})
				}
				verified, err := run(false)
				if err != nil {
					t.Fatalf("verified run failed: %v", err)
				}
				rep := verified.Integrity
				if rep == nil || !rep.Verified {
					t.Fatal("verified run returned no integrity report")
				}
				if rep.Violations != 0 || rep.Quarantines != 0 || rep.Recovered != 0 {
					t.Fatalf("honest SSI flagged: %+v", rep)
				}
				if rep.Checks == 0 || rep.Deposits == 0 || rep.Phases == 0 {
					t.Fatalf("verification did not run: %+v", rep)
				}
				if len(rep.Digest) == 0 {
					t.Fatal("verified run produced no digest")
				}
				if m := verified.Metrics; m.IntegrityChecks != rep.Checks || m.IntegrityViolations != 0 {
					t.Fatalf("metrics disagree with report: checks=%d violations=%d, report %+v",
						m.IntegrityChecks, m.IntegrityViolations, rep)
				}

				unverified, err := run(true)
				if err != nil {
					t.Fatalf("unverified run failed: %v", err)
				}
				if unverified.Integrity != nil {
					t.Fatal("SkipVerify still produced an integrity report")
				}
				if !reflect.DeepEqual(sortedRows(verified.Result), sortedRows(unverified.Result)) {
					t.Errorf("verification changed the result:\nverified:   %v\nunverified: %v",
						sortedRows(verified.Result), sortedRows(unverified.Result))
				}
			})
		}
	}
}

// TestAdversaryChaosSweep is the no-silent-wrong-answer theorem, checked by
// sweep: every protocol × every scripted SSI misbehavior × one and eight
// collection workers either returns the bit-identical honest result (detection +
// recovery) or fails with the typed misbehavior error — never a quietly
// skewed answer. The sweep also pins adversarial runs to the determinism
// contract: workers=1 and workers=8 agree on rows, metrics and errors.
func TestAdversaryChaosSweep(t *testing.T) {
	for _, sc := range churnScenarios {
		// The honest reference: same fault seed, no SSI script.
		f := newFixture(t, 20, nil)
		resp, err := f.eng.Execute(context.Background(), Request{
			Querier: f.q, SQL: sc.sql, Kind: sc.kind, Params: sc.params,
			Faults: &faultplan.Plan{Seed: 21},
		})
		if err != nil {
			t.Fatalf("%v: honest reference failed: %v", sc.kind, err)
		}
		honest := sortedRows(resp.Result)

		for _, b := range faultplan.SSIMisbehaviors() {
			sc, b := sc, b
			t.Run(fmt.Sprintf("%v/%s", sc.kind, b), func(t *testing.T) {
				type outcome struct {
					rows    []string
					metrics Metrics
					rep     IntegrityReport
					err     error
				}
				runAt := func(workers int) outcome {
					f := newFixture(t, 20, func(c *Config) { c.CollectWorkers = workers })
					resp, err := f.eng.Execute(context.Background(), Request{
						Querier: f.q, SQL: sc.sql, Kind: sc.kind, Params: sc.params,
						Faults: ssiScript(false, b),
					})
					if resp == nil {
						t.Fatalf("workers=%d: no response at all (err=%v)", workers, err)
					}
					o := outcome{metrics: *resp.Metrics, err: err}
					o.metrics.TLocal = 0
					if resp.Integrity != nil {
						o.rep = *resp.Integrity
						o.rep.Digest = nil // keyed over nondeterministic ciphertext
					}
					if resp.Result != nil {
						o.rows = sortedRows(resp.Result)
					}
					return o
				}
				seq, par := runAt(1), runAt(8)

				// Determinism under attack: the adversary's strikes depend
				// only on (seed, query ID), so both worker counts see the
				// same run.
				if !reflect.DeepEqual(seq.rows, par.rows) {
					t.Errorf("rows diverge across workers:\n1: %v\n8: %v", seq.rows, par.rows)
				}
				if !reflect.DeepEqual(seq.metrics, par.metrics) {
					t.Errorf("metrics diverge across workers:\n1: %+v\n8: %+v", seq.metrics, par.metrics)
				}
				if !reflect.DeepEqual(seq.rep, par.rep) {
					t.Errorf("integrity reports diverge across workers:\n1: %+v\n8: %+v", seq.rep, par.rep)
				}
				if (seq.err == nil) != (par.err == nil) || fmt.Sprint(seq.err) != fmt.Sprint(par.err) {
					t.Errorf("errors diverge across workers:\n1: %v\n8: %v", seq.err, par.err)
				}

				switch {
				case b == faultplan.SSIForgeCoverage:
					// The tuples are gone before the engine can notice; the
					// only sound outcome is a typed abort at the collection
					// check.
					var mis *ErrSSIMisbehavior
					if !errors.As(seq.err, &mis) {
						t.Fatalf("forged coverage not detected: err=%v rows=%v", seq.err, seq.rows)
					}
					if mis.Kind != "covering-count" || mis.Phase != "collection" {
						t.Errorf("detection = %+v, want covering-count in collection", mis)
					}
					if seq.rows != nil {
						t.Errorf("aborted run still returned rows: %v", seq.rows)
					}
					if seq.rep.Violations == 0 {
						t.Errorf("abort reported no violation: %+v", seq.rep)
					}
					assertLedgerHas(t, seq.metrics.Ledger, "integrity-violation", "collection")
					assertLedgerHas(t, seq.metrics.Ledger, "query-abort", "ssi-misbehavior")

				case b == faultplan.SSIReplayStalePartition && sc.kind == protocol.KindBasic:
					// Basic has a single partition build, so there is no
					// stale material to replay: the attack never fires and
					// the run must be indistinguishable from honest.
					if seq.err != nil {
						t.Fatalf("no-op replay still failed: %v", seq.err)
					}
					if !reflect.DeepEqual(seq.rows, honest) {
						t.Errorf("rows diverge from honest:\ngot:  %v\nwant: %v", seq.rows, honest)
					}
					if seq.rep.Violations != 0 {
						t.Errorf("no-op replay was flagged: %+v", seq.rep)
					}

				default:
					// Tampered partition builds: detected, quarantined, and
					// recovered from the SSI's stashed honest build — the
					// result must equal the honest run bit for bit.
					if seq.err != nil {
						t.Fatalf("recoverable attack aborted the run: %v", seq.err)
					}
					if !reflect.DeepEqual(seq.rows, honest) {
						t.Errorf("recovered rows diverge from honest:\ngot:  %v\nwant: %v", seq.rows, honest)
					}
					if seq.rep.Violations == 0 || seq.rep.Quarantines == 0 {
						t.Errorf("attack went undetected: %+v", seq.rep)
					}
					if seq.rep.Recovered != seq.rep.Quarantines {
						t.Errorf("quarantined %d builds but recovered %d",
							seq.rep.Quarantines, seq.rep.Recovered)
					}
					assertLedgerHas(t, seq.metrics.Ledger, "integrity-quarantine", "")
					assertLedgerHas(t, seq.metrics.Ledger, "integrity-recovered", "")
				}
			})
		}
	}
}

// coveringLiar serves one query's covering result honestly through
// CollectedRange — the read the collection verifier checks against the
// deposit commitments — but drops its first tuple from CollectedTuples and
// the first tuple of the query's first partition build; persistent, it
// drops it again from the build's re-issue. Both lies tell every other
// reader the same story.
type coveringLiar struct {
	ssi.Service
	id         string
	persistent bool
	builds     int // partition builds of the query so far
}

func (l *coveringLiar) CollectedTuples(id string) []protocol.WireTuple {
	ws := l.Service.CollectedTuples(id)
	if id == l.id && len(ws) > 0 {
		ws = ws[1:]
	}
	return ws
}

func (l *coveringLiar) StreamBuild(id string, per int) [][]protocol.WireTuple {
	return l.lie(id, l.Service.StreamBuild(id, per), true)
}

func (l *coveringLiar) PartitionByTag(id string, ws []protocol.WireTuple, maxPer int) [][]protocol.WireTuple {
	return l.lie(id, l.Service.PartitionByTag(id, ws, maxPer), true)
}

func (l *coveringLiar) PartitionRandom(id string, ws []protocol.WireTuple, per int, r *rand.Rand) [][]protocol.WireTuple {
	return l.lie(id, l.Service.PartitionRandom(id, ws, per, r), true)
}

func (l *coveringLiar) Repartition(id string) [][]protocol.WireTuple {
	return l.lie(id, l.Service.Repartition(id), false)
}

// lie drops the first tuple of the first partition of the query's first
// build (fresh), or of its re-issue when persistent.
func (l *coveringLiar) lie(id string, parts [][]protocol.WireTuple, fresh bool) [][]protocol.WireTuple {
	if id != l.id {
		return parts
	}
	if fresh {
		l.builds++
	}
	if l.builds != 1 || (!fresh && !l.persistent) || len(parts) == 0 || len(parts[0]) == 0 {
		return parts
	}
	out := append([][]protocol.WireTuple(nil), parts...)
	out[0] = out[0][1:]
	return out
}

// TestIntegrityReferenceIsWhatWasVerified closes the gap between what the
// collection verifier checks and what a build is checked against: an SSI
// that serves the verifier honestly but drops one tuple from every other
// read of the covering result, and from the first build, must not get a
// build one tuple short past the multiset check. Every protocol, at one
// worker and at eight: the build is quarantined and the honest rows come
// back through the re-issue, or — the lie persisting — the run ends in a
// typed abort.
func TestIntegrityReferenceIsWhatWasVerified(t *testing.T) {
	const id = "q-liar"
	for _, sc := range churnScenarios {
		f := newFixture(t, 20, nil)
		resp, err := f.eng.Execute(context.Background(), Request{
			Querier: f.q, SQL: sc.sql, Kind: sc.kind, Params: sc.params, QueryID: id,
		})
		if err != nil {
			t.Fatalf("%v: honest reference failed: %v", sc.kind, err)
		}
		honest := sortedRows(resp.Result)
		for _, persistent := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/persistent=%v", sc.kind, persistent), func(t *testing.T) {
				var first Metrics
				for _, workers := range []int{1, 8} {
					f := newFixture(t, 20, func(c *Config) {
						c.CollectWorkers = workers
						c.SSI = &coveringLiar{Service: ssi.New(), id: id, persistent: persistent}
					})
					resp, err := f.eng.Execute(context.Background(), Request{
						Querier: f.q, SQL: sc.sql, Kind: sc.kind, Params: sc.params, QueryID: id,
					})
					if resp == nil || resp.Integrity == nil {
						t.Fatalf("workers=%d: no verified response (err=%v)", workers, err)
					}
					rep := resp.Integrity
					if rep.Violations != 1 || rep.Quarantines != 1 {
						t.Errorf("workers=%d: the short build was not caught: %+v", workers, rep)
					}
					var mis *ErrSSIMisbehavior
					switch {
					case persistent && (!errors.As(err, &mis) || mis.Kind != "partition-multiset"):
						t.Errorf("workers=%d: err = %v, want a partition-multiset abort", workers, err)
					case persistent && resp.Result != nil:
						t.Errorf("workers=%d: aborted run still returned rows", workers)
					case !persistent && err != nil:
						t.Errorf("workers=%d: recoverable lie aborted the run: %v", workers, err)
					case !persistent && (rep.Recovered != 1 || !reflect.DeepEqual(sortedRows(resp.Result), honest)):
						t.Errorf("workers=%d: recovered %d, rows %v, want the honest %v",
							workers, rep.Recovered, sortedRows(resp.Result), honest)
					}
					m := *resp.Metrics
					m.TLocal = 0
					if workers == 1 {
						first = m
					} else if !reflect.DeepEqual(first, m) {
						t.Errorf("metrics diverge across workers:\n1: %+v\n8: %+v", first, m)
					}
				}
			})
		}
	}
}

// TestIntegrityPersistentAdversaryAborts scripts an adversary that tampers
// with the quarantine retry too: graceful degradation has nowhere left to
// go, so the run must fail with the typed partition error, visibly.
func TestIntegrityPersistentAdversaryAborts(t *testing.T) {
	f := newFixture(t, 20, nil)
	resp, err := f.eng.Execute(context.Background(), Request{
		Querier: f.q, SQL: flagshipSQL, Kind: protocol.KindSAgg,
		Params: protocol.Params{PartitionTuples: 4},
		Faults: ssiScript(true, faultplan.SSIDropTuple),
	})
	var mis *ErrSSIMisbehavior
	if !errors.As(err, &mis) {
		t.Fatalf("err = %v, want ErrSSIMisbehavior", err)
	}
	if mis.Kind != "partition-multiset" {
		t.Errorf("detection kind = %q, want partition-multiset", mis.Kind)
	}
	if resp == nil {
		t.Fatal("abort returned no response")
	}
	if resp.Result != nil {
		t.Fatal("failed run still returned rows")
	}
	rep := resp.Integrity
	if rep == nil || rep.Quarantines == 0 || rep.Recovered != 0 {
		t.Fatalf("degradation path not exercised: %+v", rep)
	}
	assertLedgerHas(t, resp.Metrics.Ledger, "integrity-quarantine", "")
	assertLedgerHas(t, resp.Metrics.Ledger, "query-abort", "ssi-misbehavior")
	assertRegistryHas(t, f.eng, `tcq_queries_failed_total{reason="ssi-misbehavior"} 1`)
	assertRegistryHas(t, f.eng, `tcq_integrity_events_total{kind="quarantine"}`)
}

// TestIntegritySizeTruncationVerifies caps the covering result at every
// small SIZE: the cap routinely cuts mid-deposit, the device re-commits to
// the accepted prefix, and verification must still pass with zero
// violations — the truncation path may not read as tampering.
func TestIntegritySizeTruncationVerifies(t *testing.T) {
	for size := 1; size <= 8; size++ {
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			f := newFixture(t, 20, nil)
			sql := fmt.Sprintf(`SELECT P.cid, P.period FROM Power P SIZE %d TUPLES`, size)
			resp, err := f.eng.Execute(context.Background(), Request{
				Querier: f.q, SQL: sql, Kind: protocol.KindBasic,
			})
			if err != nil {
				t.Fatalf("SIZE %d run failed: %v", size, err)
			}
			if resp.Metrics.Nt != int64(size) {
				t.Fatalf("Nt = %d, want the SIZE cap %d", resp.Metrics.Nt, size)
			}
			rep := resp.Integrity
			if rep == nil || rep.Violations != 0 {
				t.Fatalf("truncated collection misread as tampering: %+v", rep)
			}
			if len(rep.Digest) == 0 {
				t.Fatal("truncated run produced no digest")
			}
		})
	}
}

// TestAbortCoverageFloorObservability pins the error-path plumbing for a
// coverage-floor abort: the Response still carries metrics, ledger and a
// well-formed trace, and the failure lands in the cumulative registry.
func TestAbortCoverageFloorObservability(t *testing.T) {
	f := newFixture(t, 40, nil)
	resp, err := f.eng.Execute(context.Background(), Request{
		Querier: f.q, SQL: flagshipSQL, Kind: protocol.KindSAgg,
		Params: protocol.Params{PartitionTuples: 4},
		Faults: &faultplan.Plan{Seed: 2, OfflineFraction: 0.9, CoverageFloor: 0.5},
	})
	if !errors.Is(err, ErrCoverageBelowFloor) {
		t.Fatalf("err = %v, want ErrCoverageBelowFloor", err)
	}
	if resp == nil {
		t.Fatal("abort returned no response")
	}
	if resp.Result != nil {
		t.Fatal("failed run still returned rows")
	}
	if resp.Metrics == nil || resp.Metrics.CoverageRatio >= 0.5 {
		t.Fatalf("abort metrics do not show the failing coverage: %+v", resp.Metrics)
	}
	assertLedgerHas(t, resp.Metrics.Ledger, "query-abort", "coverage-floor")
	if resp.Trace == nil {
		t.Fatal("abort returned no trace")
	}
	var buf bytes.Buffer
	if err := resp.Trace.WriteJSONL(&buf); err != nil {
		t.Fatalf("abort trace does not serialize: %v", err)
	}
	assertRegistryHas(t, f.eng, `tcq_queries_failed_total{reason="coverage-floor"} 1`)
}

// fuseCtx is live for the first `fuse` Err checks and canceled after: it
// trips a deterministic mid-run cancellation, after execution has started,
// which a pre-canceled context cannot reach.
type fuseCtx struct {
	context.Context
	calls, fuse int
}

func (c *fuseCtx) Err() error {
	c.calls++
	if c.calls > c.fuse {
		return context.Canceled
	}
	return nil
}

// TestAbortTimeoutObservability cancels the context mid-collection and
// requires the same full observability as any other abort: typed error,
// settled metrics, abort ledger entry, failure counter.
func TestAbortTimeoutObservability(t *testing.T) {
	f := newFixture(t, 20, func(c *Config) { c.CollectWorkers = 1 })
	resp, err := f.eng.Execute(&fuseCtx{Context: context.Background(), fuse: 3}, Request{
		Querier: f.q, SQL: flagshipSQL, Kind: protocol.KindSAgg,
		Params: protocol.Params{PartitionTuples: 4},
	})
	if !errors.Is(err, ErrQueryTimeout) {
		t.Fatalf("err = %v, want ErrQueryTimeout", err)
	}
	if resp == nil {
		t.Fatal("mid-run cancellation returned no response; it should abort, not vanish")
	}
	if resp.Result != nil {
		t.Fatal("canceled run still returned rows")
	}
	assertLedgerHas(t, resp.Metrics.Ledger, "query-abort", "timeout")
	if resp.Trace == nil {
		t.Fatal("canceled run returned no trace")
	}
	assertRegistryHas(t, f.eng, `tcq_queries_failed_total{reason="timeout"} 1`)
}

// assertLedgerHas requires one recovery-ledger entry of the given kind (and
// phase, when non-empty).
func assertLedgerHas(t *testing.T, ledger []ssi.LedgerEntry, kind, phase string) {
	t.Helper()
	for _, le := range ledger {
		if le.Kind == kind && (phase == "" || le.Phase == phase) {
			return
		}
	}
	t.Errorf("ledger has no %s/%s entry: %+v", kind, phase, ledger)
}

// assertRegistryHas requires the engine's cumulative registry to render a
// line containing want.
func assertRegistryHas(t *testing.T, e *Engine, want string) {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), want) {
		t.Errorf("registry is missing %q:\n%s", want, buf.String())
	}
}

// TestIntegrityWorkersAgree drives the verifier directly over a store large
// enough to pass the fan-out gate, at one worker and at eight: the digests
// must be the ones the one-shot Commit and Fold produce (what the verifier
// computed before its leaves were streamed and fanned out) — the
// collection root over the deposit leaves, a covering build over its
// partition boundaries in deposit order or over its tuples' input
// positions permuted, a build over relayed partials over its bytes — and a
// tampered stored tuple must end the walk at the same check, with the same
// typed violation, wherever it sits and whoever computed its leaf.
func TestIntegrityWorkersAgree(t *testing.T) {
	const deposits, per = 100, 130 // ~1.4 MB, above the gate
	segsOf := func(ws []protocol.WireTuple) [][]byte {
		var segs [][]byte
		for _, w := range ws {
			segs = append(segs, w.Tag, w.Ciphertext, w.Digest)
		}
		return segs
	}
	be64 := func(v int) []byte { return binary.BigEndian.AppendUint64(nil, uint64(v)) }
	for _, workers := range []int{1, 8} {
		eng, _ := newBenchEngine(t, 1, workers)
		rs, store := newVerifyRun(t, eng, deposits, per)
		c := rs.verifier
		if protocol.TotalSize(store.tuples) < leafFanOutBytes {
			t.Fatal("store too small to fan out")
		}

		if err := eng.verifyCollection(rs); err != nil {
			t.Fatalf("workers=%d: honest store rejected: %v", workers, err)
		}
		var leaves [][]byte
		for _, r := range rs.integ.records {
			leaves = append(leaves, r.commit)
		}
		if want := c.Fold("collection-root", leaves...); !bytes.Equal(rs.integ.digest, want) {
			t.Errorf("workers=%d: collection root %x, want %x", workers, rs.integ.digest, want)
		}
		if got, want := rs.metrics.IntegrityChecks, 1+deposits+1; got != want {
			t.Errorf("workers=%d: %d checks on the honest walk, want %d", workers, got, want)
		}

		root := rs.integ.digest
		var windows [][]protocol.WireTuple
		bounds := [][]byte{root}
		for off := 0; off < len(store.tuples); off += 77 {
			end := min(off+77, len(store.tuples))
			windows = append(windows, store.tuples[off:end])
			bounds = append(bounds, be64(end))
		}
		parts := shuffledParts(store.tuples, 77, rand.New(rand.NewSource(5)))
		at := make(map[string]int) // ciphertext -> input position; benchTuples are distinct
		for i, w := range store.tuples {
			at[string(w.Ciphertext)] = i
		}
		positions, relayed := [][]byte{root}, [][]byte{root}
		for _, p := range parts {
			var segs [][]byte
			for _, w := range p {
				segs = append(segs, be64(at[string(w.Ciphertext)]))
			}
			positions = append(positions, c.Commit("positions/step", segs...))
			relayed = append(relayed, c.Commit("partition/step", segsOf(p)...))
		}
		for _, b := range []struct {
			name     string
			covering bool
			input    []protocol.WireTuple // nil: the covering result, read through the store
			parts    [][]protocol.WireTuple
			want     []byte
		}{
			{"in order", true, nil, windows, c.Fold("bounds/step", bounds...)},
			{"permuted", true, nil, parts, c.Fold("phase/step", positions...)},
			{"relayed", false, store.tuples, parts, c.Fold("phase/step", relayed...)},
		} {
			rs.integ.digest = root
			if !rs.foldBuild("step", b.covering, b.input, b.parts) {
				t.Fatalf("workers=%d: honest %s build rejected", workers, b.name)
			}
			if !bytes.Equal(rs.integ.digest, b.want) {
				t.Errorf("workers=%d: %s build digest %x, want %x", workers, b.name, rs.integ.digest, b.want)
			}
		}

		for _, rec := range []int{0, 3, 57, deposits - 5, deposits - 1} {
			rs, store := newVerifyRun(t, eng, deposits, per)
			store.tamper = rec*per + per/2
			var mis *ErrSSIMisbehavior
			if err := eng.verifyCollection(rs); !errors.As(err, &mis) {
				t.Fatalf("workers=%d: tampered record %d not detected: %v", workers, rec, err)
			}
			if mis.Kind != "deposit-commitment" || mis.Phase != "collection" {
				t.Errorf("workers=%d record %d: detection = %+v", workers, rec, mis)
			}
			if got, want := rs.metrics.IntegrityChecks, 1+rec+1; got != want {
				t.Errorf("workers=%d record %d: %d checks before the violation, want %d",
					workers, rec, got, want)
			}
			if rs.metrics.IntegrityViolations != 1 || rs.integ.digest != nil {
				t.Errorf("workers=%d record %d: violations %d, digest %x",
					workers, rec, rs.metrics.IntegrityViolations, rs.integ.digest)
			}
		}
	}
}

// TestAdversaryFanOutWorkersAgree is the chaos sweep's complement at a
// size where verification leaves the inline loop: the 20-device fleets of
// TestAdversaryChaosSweep never reach the fan-out gate, so they compare
// one worker with eight over the same serial code. Here every run collects
// more than the gate, so at eight workers the deposit leaves are computed
// concurrently — under the race detector in check.sh — and
// must still produce the same check count, counters, ledger, rows and
// typed error as the inline walk, honest or under attack.
func TestAdversaryFanOutWorkersAgree(t *testing.T) {
	for _, sc := range []struct {
		kind  protocol.Kind
		fleet int
	}{{protocol.KindSAgg, 4000}, {protocol.KindCNoise, 1000}} {
		for _, attack := range []struct {
			name       string
			faults     *faultplan.Plan
			kind       string // the typed abort expected; "" for a run that completes
			violations int
		}{
			{"honest", nil, "", 0},
			{"drop-tuple", ssiScript(false, faultplan.SSIDropTuple), "", 1},
			{"persistent-duplicate", ssiScript(true, faultplan.SSIDuplicateTuple), "partition-multiset", 1},
		} {
			t.Run(fmt.Sprintf("%v/%s", sc.kind, attack.name), func(t *testing.T) {
				type outcome struct {
					rows    []string
					metrics Metrics
					rep     IntegrityReport
					err     error
				}
				runAt := func(workers int) outcome {
					f := newFixture(t, sc.fleet, func(c *Config) { c.CollectWorkers = workers })
					resp, err := f.eng.Execute(context.Background(), Request{
						Querier: f.q, SQL: flagshipSQL, Kind: sc.kind, Faults: attack.faults,
					})
					if resp == nil || resp.Integrity == nil {
						t.Fatalf("workers=%d: no verified response (err=%v)", workers, err)
					}
					o := outcome{metrics: *resp.Metrics, rep: *resp.Integrity, err: err}
					o.metrics.TLocal = 0
					o.rep.Digest = nil // keyed over nondeterministic ciphertext
					if resp.Result != nil {
						o.rows = sortedRows(resp.Result)
					}
					return o
				}
				seq, par := runAt(1), runAt(8)
				if seq.metrics.CollectBytes < leafFanOutBytes {
					t.Fatalf("collected %d bytes: below the fan-out gate, this run proves nothing",
						seq.metrics.CollectBytes)
				}
				if seq.metrics.IntegrityChecks != par.metrics.IntegrityChecks {
					t.Errorf("checks: %d inline, %d fanned out",
						seq.metrics.IntegrityChecks, par.metrics.IntegrityChecks)
				}
				if !reflect.DeepEqual(seq.rows, par.rows) {
					t.Errorf("rows diverge across workers:\n1: %v\n8: %v", seq.rows, par.rows)
				}
				if !reflect.DeepEqual(seq.metrics, par.metrics) {
					t.Errorf("metrics diverge across workers:\n1: %+v\n8: %+v", seq.metrics, par.metrics)
				}
				if !reflect.DeepEqual(seq.rep, par.rep) {
					t.Errorf("integrity reports diverge across workers:\n1: %+v\n8: %+v", seq.rep, par.rep)
				}
				var mis1, mis8 *ErrSSIMisbehavior
				if errors.As(seq.err, &mis1) != errors.As(par.err, &mis8) ||
					(mis1 != nil && *mis1 != *mis8) {
					t.Errorf("detections diverge across workers:\n1: %v\n8: %v", seq.err, par.err)
				}
				switch {
				case attack.kind == "" && seq.err != nil:
					t.Errorf("run failed: %v", seq.err)
				case attack.kind != "" && (mis1 == nil || mis1.Kind != attack.kind):
					t.Errorf("err = %v, want a %s abort", seq.err, attack.kind)
				}
				if seq.rep.Violations != attack.violations {
					t.Errorf("violations = %d, want %d: %+v", seq.rep.Violations, attack.violations, seq.rep)
				}
			})
		}
	}
}
