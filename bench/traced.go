package main

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"time"

	"github.com/trustedcells/tcq/internal/core"
	"github.com/trustedcells/tcq/internal/obs"
	"github.com/trustedcells/tcq/internal/ssi"
)

// tracedQueries is how many pinned ring slots the traced pass replays.
// The pass is count-based, not time-based, so that its counts repeat
// exactly from run to run.
const tracedQueries = 30

// timed runs one request straight through the engine and returns its
// wall time in milliseconds.
func timed(eng *core.Engine, req core.Request) (*core.Response, float64, error) {
	t0 := time.Now()
	resp, err := eng.Execute(context.Background(), req)
	return resp, float64(time.Since(t0).Nanoseconds()) / 1e6, err
}

// runTraced is the per-layer pass. Three instruments, all outside the
// program: stage brackets on a plain engine (the same pinned QueryID run
// plain, CollectOnly and SkipVerify, and through the server), the
// span-recording SSI decorator on a second engine, and kernel replays of
// the lower layers' public functions on the first traced query's inputs.
func runTraced(s *spec, seed int64) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	fail := func(format string, args ...any) {
		res.Failed++
		logf("FAIL %s: "+format, append([]any{s.name}, args...)...)
	}

	// Two engines from the same seed with the same set-up history: a plain
	// one for the brackets, and one behind the span-recording decorator,
	// which must be invisible in rows and Metrics.
	plain, err := setup(s, seed, nil)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	rec := newRecorder()
	deco, err := setup(s, seed, newSpanSSI(ssi.NewSharded(0), rec))
	if err != nil {
		return nil, err
	}
	defer deco.close()
	rec.spans = rec.spans[:0] // drop the set-up's spans
	want, err := expectations(plain, tracedQueries)
	if err != nil {
		return nil, err
	}

	// Per pinned QueryID, back to back so that every difference is a
	// paired one: F (plain), C (CollectOnly), S (SkipVerify), Sub (through
	// Submit at one client) and T (traced, on the decorated engine). Odd
	// slots run the five in reverse: whichever goes first after the other
	// engine's run finds the caches cold, and alternating the order keeps
	// that out of the medians of the differences.
	n := tracedQueries
	full, sub, traced := make([]*core.Response, n), make([]*core.Response, n), make([]*core.Response, n)
	tF, tC, tS := make([]float64, n), make([]float64, n), make([]float64, n)
	tSub, tT := make([]float64, n), make([]float64, n)
	var cpuF time.Duration
	for i := 0; i < n; i++ {
		req := plain.request(i)
		collectOnly, skipVerify := req, req
		collectOnly.CollectOnly = true
		skipVerify.SkipVerify = true
		steps := []func() error{
			func() (err error) {
				c0, err := cpuTime()
				if err != nil {
					return err
				}
				if full[i], tF[i], err = timed(plain.eng, req); err != nil {
					return err
				}
				c1, err := cpuTime()
				cpuF += c1 - c0
				return err
			},
			func() (err error) { _, tC[i], err = timed(plain.eng, collectOnly); return err },
			func() (err error) { _, tS[i], err = timed(plain.eng, skipVerify); return err },
			func() (err error) {
				t0 := time.Now()
				sub[i], err = plain.srv.Submit(context.Background(), req)
				tSub[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
				return err
			},
			func() (err error) {
				rec.beginRoot(req.QueryID)
				traced[i], tT[i], err = timed(deco.eng, deco.request(i))
				rec.endRoot()
				return err
			},
		}
		for k := range steps {
			if i%2 == 1 {
				k = len(steps) - 1 - k
			}
			if err := steps[k](); err != nil {
				return nil, fmt.Errorf("%s, step %d: %w", req.QueryID, k, err)
			}
		}

		res.Attempted += 3
		if err := want[i].check(full[i].Result.Rows, full[i].Metrics.TQ); err != nil {
			fail("%s: %v", req.QueryID, err)
		}
		if !reflect.DeepEqual(sub[i].Metrics, full[i].Metrics) {
			fail("%s: Submit and Execute disagree on Metrics", req.QueryID)
		}
		if err := sameRows(traced[i].Result.Rows, full[i].Result.Rows); err != nil {
			fail("%s: traced rows differ from untraced: %v", req.QueryID, err)
		} else if !reflect.DeepEqual(traced[i].Metrics, full[i].Metrics) {
			fail("%s: traced Metrics differ from untraced", req.QueryID)
		}
	}
	res.Correct = res.Failed == 0
	if !res.Correct {
		return res, nil
	}

	// core: brackets, shares and exact counts.
	fMs := median(tF)
	res.set("core.provision_ms", plain.provision.Seconds()*1e3)
	res.set("core.collect_ms", median(tC))
	res.set("core.aggregate_filter_ms", median(pairedDiff(tF, tC)))
	res.set("core.integrity_ms", median(pairedDiff(tF, tS)))
	res.set("core.server_ms", median(pairedDiff(tSub, tF)))
	res.set("core.collect_share", median(tC)/fMs)
	res.set("core.integrity_share", median(pairedDiff(tF, tS))/fMs)
	var cnt struct {
		devices, deposits, tuples, partitions, ptds, reassign, timeouts, checks, faulted float64
		coverage, ratio, ratios                                                          float64
		traceEvents, journalEvents                                                       float64
	}
	for _, r := range full {
		m := r.Metrics
		cnt.devices += float64(m.EligibleDevices)
		cnt.deposits += float64(m.DepositedDevices)
		cnt.tuples += float64(m.Nt)
		for _, p := range m.Phases {
			cnt.partitions += float64(p.Units)
		}
		cnt.ptds += float64(m.PTDS)
		cnt.reassign += float64(m.Reassignments)
		cnt.timeouts += float64(m.Timeouts)
		cnt.checks += float64(m.IntegrityChecks)
		cnt.faulted += float64(m.OfflineDevices + m.DroppedDeposits + m.CorruptDeposits)
		cnt.coverage += m.CoverageRatio
		if r.Conformance != nil {
			cnt.ratio += r.Conformance.Ratio
			cnt.ratios++
		}
		r.Trace.Walk(func(sp *obs.Span) { cnt.traceEvents += 1 + float64(len(sp.Events)) })
		cnt.journalEvents += float64(len(r.Journal.Events))
	}
	q := float64(n)
	res.set("core.devices_per_query", cnt.devices/q)
	res.set("core.deposits_per_query", cnt.deposits/q)
	res.set("core.tuples_per_query", cnt.tuples/q)
	res.set("core.partitions_per_query", cnt.partitions/q)
	res.set("core.ptds_per_query", cnt.ptds/q)
	res.set("core.reassignments_per_query", cnt.reassign/q)
	res.set("core.timeouts_per_query", cnt.timeouts/q)
	res.set("core.integrity_checks_per_query", cnt.checks/q)
	res.set("core.coverage_ratio", cnt.coverage/q)
	res.set("faultplan.faulted_devices_per_query", cnt.faulted/q)
	res.set("obs.trace_events_per_query", cnt.traceEvents/q)
	res.set("obs.journal_events_per_query", cnt.journalEvents/q)
	// The Section 6.1 cost model is the repository's only reference for
	// the simulated clock; 0 means the model covers none of the queries.
	if cnt.ratios > 0 {
		cnt.ratio /= cnt.ratios
	}
	res.set("costmodel.tq_ratio", cnt.ratio)

	// ssi: the decorator's spans, grouped by name under each root.
	ssiBusyMs := ssiLedger(res, rec, n)

	// Lower layers: kernel replays on the first traced query's inputs.
	k, err := replayKernels(deco, rec, full[0], want[0], res)
	if err != nil {
		return nil, err
	}
	cpuMs := cpuF.Seconds() * 1e3 / q
	res.set("bench.trace_overhead_pct", median(pairedDiff(tT, tF))/fMs*100)
	res.set("bench.layer_coverage_ratio", (k+ssiBusyMs)/cpuMs)
	logf("%s: traced %d queries; plain p50 %.2f ms, cpu %.2f ms/query, layers explain %.2f ms",
		s.name, n, fMs, cpuMs, k+ssiBusyMs)

	return res, rec.write(filepath.Join(outDir, s.name+".trace.jsonl"))
}

// ssiLedger turns the decorator's spans into the ssi.* rows and
// core.self_ms, and returns the SSI's busy milliseconds per query.
func ssiLedger(res *result, rec *recorder, queries int) float64 {
	groupNs := map[string]int64{}
	groupCount := map[string]int{}
	calls := 0
	children := map[int][]interval{}
	var roots []span
	for i := range rec.spans {
		sp := rec.span(i)
		switch sp.Layer {
		case "core":
			roots = append(roots, sp)
		case "ssi":
			calls++
			groupNs[sp.Name] += sp.EndNs - sp.StartNs
			groupCount[sp.Name] += sp.Count
			children[sp.Parent] = append(children[sp.Parent], interval{sp.StartNs, sp.EndNs})
		}
	}
	var rootNs, busyNs int64
	var self []float64
	for _, sp := range roots {
		busy := unionLen(children[sp.ID])
		rootNs += sp.EndNs - sp.StartNs
		busyNs += busy
		self = append(self, float64(sp.EndNs-sp.StartNs-busy)/1e6)
	}
	q := float64(queries)
	ms := func(name string) float64 { return float64(groupNs[name]) / 1e6 / q }
	res.set("core.self_ms", median(self))
	res.set("ssi.deposit_ms", ms("deposit")+ms("deposit-rejected"))
	res.set("ssi.partition_ms", ms("partition"))
	res.set("ssi.read_ms", ms("read"))
	res.set("ssi.other_ms", ms("other"))
	res.set("ssi.calls_per_query", float64(calls)/q)
	res.set("ssi.deposits_per_query", float64(groupCount["deposit"])/q)
	res.set("ssi.rejected_per_query", float64(groupCount["deposit-rejected"])/q)
	res.set("ssi.partitions_per_query", float64(groupCount["partition"])/q)
	res.set("ssi.busy_share", float64(busyNs)/float64(rootNs))
	return float64(busyNs) / 1e6 / q
}
