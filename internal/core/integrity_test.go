package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/trustedcells/tcq/internal/faultplan"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/ssi"
)

// coveringLiar serves the collection verifier honestly but lies about
// one query's first build and, persistent, its re-issue, in one way:
// "drop" its first tuple, or lie about a positioned build's positions —
// "swap" two, "repeat" the first for the last (its tuple too), put one
// "out-of-range", return one too "few", or "nil" ones. It records whether
// the honest first build named each of its tuples' positions.
type coveringLiar struct {
	ssi.Service
	id, lie    string
	persistent bool
	positioned bool // pos[k] held build tuple k, for every k
}

func (l *coveringLiar) StreamBuild(id string, per int) ([][]protocol.WireTuple, []int32) {
	parts, pos := l.Service.StreamBuild(id, per)
	if id == l.id {
		l.positioned = refPositions(l.Service.CollectedRange(id, 0, l.Service.CollectedCount(id)), parts, pos)
	}
	return l.tell(id, parts, pos, true)
}

func (l *coveringLiar) Repartition(id string) ([][]protocol.WireTuple, []int32) {
	parts, pos := l.Service.Repartition(id)
	return l.tell(id, parts, pos, false)
}

func (l *coveringLiar) tell(id string, parts [][]protocol.WireTuple, pos []int32, fresh bool) ([][]protocol.WireTuple, []int32) {
	if id != l.id || (!fresh && !l.persistent) || len(parts) == 0 || len(parts[0]) == 0 {
		return parts, pos
	}
	switch pos = slices.Clone(pos); l.lie {
	case "drop":
		parts = append([][]protocol.WireTuple{parts[0][1:]}, parts[1:]...)
	case "swap":
		pos[0], pos[1] = pos[1], pos[0]
	case "repeat": // each tuple still equals its named one: only the once-each check sees it
		last := len(parts) - 1
		parts = append(parts[:last:last], append(slices.Clone(parts[last][:len(parts[last])-1]), parts[0][0]))
		pos[len(pos)-1] = pos[0]
	case "out-of-range":
		pos[0] = int32(len(pos))
	case "few":
		pos = pos[:len(pos)-1]
	case "nil":
		pos = nil
	}
	return parts, pos
}

// TestIntegrityReferenceIsWhatWasVerified: an SSI that serves the
// collection verifier honestly but lies about the first build — one tuple
// short, or positions that do not name its tuples — must not get it past
// the build check. Every protocol, at one worker and at eight: the build
// is quarantined and the honest rows come back through the re-issue, or —
// the lie persisting — the run ends in a typed abort. An honest tagged
// first build names every tuple's index in the verified covering result.
func TestIntegrityReferenceIsWhatWasVerified(t *testing.T) {
	const id = "q-liar"
	for _, sc := range churnScenarios {
		tagged, params := sc.kind != protocol.KindBasic && sc.kind != protocol.KindSAgg, sc.params
		if sc.kind == protocol.KindEDHist {
			params.NumBuckets = 5 // one bucket per district: one is a build in deposit order
		}
		reference := &coveringLiar{Service: ssi.NewSharded(1), id: id}
		f := newFixture(t, 20, func(c *Config) { c.SSI = reference })
		resp, err := f.eng.Execute(context.Background(), Request{
			Querier: f.q, SQL: sc.sql, Kind: sc.kind, Params: params, QueryID: id,
		})
		if err != nil || reference.positioned != tagged {
			t.Fatalf("%v: honest reference failed (%v), or named its positions: %v", sc.kind, err, reference.positioned)
		}
		honest := sortedRows(resp.Result)
		for _, lie := range []string{"drop", "swap", "repeat", "out-of-range", "few", "nil"} {
			if lie != "drop" && !tagged {
				continue // only a tagged first build has positions to lie about
			}
			name := strings.TrimSuffix(sc.kind.String()+"/"+lie, "/drop")
			for _, persistent := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/persistent=%v", name, persistent), func(t *testing.T) {
					var first Metrics
					for _, workers := range []int{1, 8} {
						f := newFixture(t, 20, func(c *Config) {
							c.CollectWorkers = workers
							c.SSI = &coveringLiar{Service: ssi.NewSharded(1), id: id, lie: lie, persistent: persistent}
						})
						resp, err := f.eng.Execute(context.Background(), Request{
							Querier: f.q, SQL: sc.sql, Kind: sc.kind, Params: params, QueryID: id,
						})
						if resp == nil || resp.Integrity == nil {
							t.Fatalf("workers=%d: no verified response (err=%v)", workers, err)
						}
						rep := resp.Integrity
						if rep.Violations != 1 || rep.Quarantines != 1 {
							t.Errorf("workers=%d: the lie was not caught: %+v", workers, rep)
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

// TestAbortTimeoutObservability cancels the context mid-collection, and
// inside the first phase after crashes, and requires the same full
// observability as any other abort: typed error, settled metrics, abort
// ledger entry, and a journal that ends in the abort — possibly with a
// phase still open, which the schema checker permits for aborts — with
// no stream left open. A run's recovery counters are its ledger's, so the
// crashes of a phase the cancellation cut short still count.
func TestAbortTimeoutObservability(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fuse   int // context checks before the cancellation
		faults *faultplan.Plan
	}{
		{"mid-collection", 3, nil},
		{"mid-phase-after-crashes", 9, &faultplan.Plan{Seed: 21, CrashFraction: 0.3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// One collection worker fixes the walk's context checks, so the
			// fuse trips at the same point at any GOMAXPROCS.
			f := newFixture(t, 40, func(c *Config) { c.CollectWorkers = 1 })
			resp, err := f.eng.Execute(&fuseCtx{Context: context.Background(), fuse: tc.fuse}, Request{
				Querier: f.q, SQL: flagshipSQL, Kind: protocol.KindSAgg,
				Params: protocol.Params{PartitionTuples: 4}, Faults: tc.faults,
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
			m := resp.Metrics
			assertLedgerHas(t, m.Ledger, "query-abort", "timeout")
			if resp.Trace == nil {
				t.Fatal("canceled run returned no trace")
			}
			assertAbortJournal(t, resp, "timeout")
			if tc.faults != nil && (len(m.Phases) > 0 || m.Reassignments == 0 ||
				m.Reassignments != ledgerCount(m, "reassign")) {
				t.Errorf("the cancellation missed the first phase's crashes: %d phases settled, "+
					"%d reassignments, %d reassign entries", len(m.Phases), m.Reassignments, ledgerCount(m, "reassign"))
			}
		})
	}
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

// TestIntegrityWorkersAgree drives the verifier directly over a store large
// enough to pass the fan-out gate, at one worker and at eight: the digests
// must be the ones the one-shot Commit and Fold produce (what the verifier
// computed before its leaves were streamed and fanned out) — the
// collection root over the deposit leaves, a covering build over its
// partition boundaries in deposit order or over the store positions it
// names permuted, a build over relayed partials over its bytes — and a
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
			leaves = append(leaves, r.commit[:])
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
		pos := positionsOf(store.tuples, parts)
		positions, relayed, k := [][]byte{root}, [][]byte{root}, 0
		for _, p := range parts {
			var segs [][]byte
			for range p {
				segs, k = append(segs, be64(int(pos[k]))), k+1
			}
			positions = append(positions, c.Commit("positions/step", segs...))
			relayed = append(relayed, c.Commit("partition/step", segsOf(p)...))
		}
		for _, b := range []struct {
			name     string
			covering bool
			input    []protocol.WireTuple // relayed partials; a covering build is checked against the views
			parts    [][]protocol.WireTuple
			pos      []int32
			want     []byte
		}{
			{"in order", true, nil, windows, nil, c.Fold("bounds/step", bounds...)},
			{"permuted", true, nil, parts, pos, c.Fold("phase/step", positions...)},
			{"relayed", false, store.tuples, parts, nil, c.Fold("phase/step", relayed...)},
		} {
			rs.integ.digest = root
			if !rs.foldBuild("step", b.covering, b.input, b.parts, b.pos) {
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

// TestAdversaryFanOutWorkersAgree runs where verification leaves the
// inline loop: TestComposedFaults' small fleets never reach the fan-out
// gate. Here every run collects more than the gate, so at eight workers
// the deposit leaves are computed concurrently — under the race detector
// in check.sh — and must still produce the same check count, counters,
// ledger, rows and typed error as the inline walk, honest or under attack.
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
			{"drop-tuple", &faultplan.Plan{Seed: 21, SSI: &faultplan.SSIScript{
				Behaviors: []faultplan.SSIMisbehavior{faultplan.SSIDropTuple}}}, "", 1},
			{"persistent-duplicate", &faultplan.Plan{Seed: 21, SSI: &faultplan.SSIScript{Persistent: true,
				Behaviors: []faultplan.SSIMisbehavior{faultplan.SSIDuplicateTuple}}}, "partition-multiset", 1},
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
