package main

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/trustedcells/tcq/internal/accessctl"
	"github.com/trustedcells/tcq/internal/core"
	"github.com/trustedcells/tcq/internal/obs"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/sqlexec"
	"github.com/trustedcells/tcq/internal/sqlparse"
	"github.com/trustedcells/tcq/internal/storage"
	"github.com/trustedcells/tcq/internal/tds"
	"github.com/trustedcells/tcq/internal/tdscrypto"
)

const (
	// kernelDevices and kernelTuples bound how much of the captured
	// query a replay walks; per-unit costs do not need the whole fleet.
	kernelDevices    = 200
	kernelTuples     = 8000
	kernelPartitions = 200
	// kernelReps repeats each replay; the median is reported.
	kernelReps = 3
)

// replayer runs the kernel replays. The first failure sticks: later
// replays are skipped and replayKernels reports it.
type replayer struct {
	rec *recorder
	err error
}

// run times fn, which performs units operations, kernelReps times and
// files one span per repetition. It returns the median nanoseconds per
// unit.
func (k *replayer) run(layer, name string, units int, fn func() error) float64 {
	if k.err != nil || units == 0 {
		return 0
	}
	lbl := k.rec.labelOf(layer, name)
	per := make([]float64, kernelReps)
	for r := range per {
		t0 := k.rec.now()
		if err := fn(); err != nil {
			k.err = fmt.Errorf("replay %s.%s: %w", layer, name, err)
			return 0
		}
		per[r] = float64(k.rec.add(lbl, t0, units)) / float64(units)
	}
	return median(per)
}

// noisy reports whether the protocol tags tuples with Det_Enc of the
// grouping values and needs the A_G domain to draw fakes from.
func noisy(k protocol.Kind) bool {
	return k == protocol.KindRnfNoise || k == protocol.KindCNoise
}

// replayKernels rebuilds devices from the same keys and data the engine
// holds and times the lower layers' public functions on what the first
// traced query actually sent through them. It sets the per-layer rows
// below core and ssi, and returns the sum of the layers' estimated
// milliseconds per query (unit cost x the query's own counts).
func replayKernels(fx *fixture, rec *recorder, first *core.Response, ref expectation, res *result) (float64, error) {
	req := fx.request(0)
	post, m := rec.post, first.Metrics
	if post == nil || len(rec.deposits) == 0 {
		return 0, fmt.Errorf("the decorator captured nothing of %s", req.QueryID)
	}
	k := &replayer{rec: rec}
	rec.query = 0 // the spans below belong to the first traced query
	aad := post.AAD()
	ring := tdscrypto.NewKeyAuthority(benchKey("master")).Ring()
	authority := accessctl.NewAuthority(benchKey("authority"))
	k2, err := tdscrypto.NewSuite(ring.K2)
	if err != nil {
		return 0, err
	}

	// workload: data generation, which setup_s pays once per device.
	nDev := min(fx.spec.fleet, kernelDevices)
	dbs := make([]*storage.LocalDB, nDev)
	genNs := k.run("workload", "household", nDev, func() error {
		for i := range dbs {
			dbs[i] = fx.gen.HouseholdDB(i)
		}
		return nil
	})
	res.set("workload.household_us_per_device", genNs/1e3)

	// sqlparse, sqlexec.Compile, querier.BuildPost: per-query fixed costs.
	const fixedReps = 100
	var stmt *sqlparse.SelectStmt
	parseNs := k.run("sqlparse", "parse", fixedReps, func() error {
		for i := 0; i < fixedReps; i++ {
			if stmt, err = sqlparse.Parse(req.SQL); err != nil {
				return err
			}
		}
		return nil
	})
	var plan *sqlexec.Plan
	compileNs := k.run("sqlexec", "compile", fixedReps, func() error {
		for i := 0; i < fixedReps; i++ {
			if plan, err = sqlexec.Compile(stmt, fx.eng.Schema()); err != nil {
				return err
			}
		}
		return nil
	})
	postNs := k.run("querier", "build_post", fixedReps, func() error {
		for i := 0; i < fixedReps; i++ {
			if _, err := req.Querier.BuildPost(req.QueryID, req.SQL, req.Kind, req.Params); err != nil {
				return err
			}
		}
		return nil
	})
	res.set("sqlparse.parse_us", parseNs/1e3)
	res.set("sqlexec.compile_us", compileNs/1e3)
	res.set("querier.build_post_us", postNs/1e3)
	if k.err != nil {
		return 0, k.err // everything below needs the compiled plan
	}

	// sqlexec.CollectLocal and tds.Collect: the per-device collection step,
	// on devices wired the way the engine wires them (shared plan cache,
	// one arena per walk, a fresh RNG per device).
	localNs := k.run("sqlexec", "collect_local", nDev, func() error {
		for _, db := range dbs {
			if _, err := plan.CollectLocal(db); err != nil {
				return err
			}
		}
		return nil
	})
	devices := make([]*tds.TDS, nDev)
	shared := tds.NewPlanCache()
	for i, db := range dbs {
		if devices[i], err = tds.New(fmt.Sprintf("tds-%05d", i), db, ring, benchPolicy(), authority); err != nil {
			return 0, err
		}
		devices[i].Shared = shared
	}
	cfg := tds.CollectConfig{Now: obs.SimOrigin(), Arena: &tdscrypto.Arena{}}
	if noisy(post.Kind) {
		// The discovered A_G domain is the set of grouping values, which
		// the reference answer lists, in the engine's canonical order.
		groups := len(stmt.GroupBy)
		for _, row := range ref.rows {
			cfg.Domain = append(cfg.Domain, row[:groups])
		}
		sort.Slice(cfg.Domain, func(i, j int) bool { return cfg.Domain[i].Key() < cfg.Domain[j].Key() })
	}
	// core seeds one math/rand source per device per query; it offers no
	// public seam for that, so the harness times the same library call.
	rngs := make([]*rand.Rand, nDev)
	seedNs := k.run("core", "rng_seed", nDev, func() error {
		for i := range rngs {
			rngs[i] = rand.New(rand.NewSource(fx.seed + int64(i)))
		}
		return nil
	})
	res.set("core.rng_seed_us_per_device", seedNs/1e3)
	collected := 0
	collectNs := k.run("tds", "collect", nDev, func() error {
		collected = 0
		for i, t := range devices {
			c := cfg
			c.Rng = rngs[i]
			tuples, _, err := t.Collect(post, c)
			if err != nil {
				return err
			}
			collected += len(tuples)
		}
		return nil
	})
	res.set("sqlexec.collect_local_us_per_device", localNs/1e3)
	res.set("tds.collect_us_per_device", collectNs/1e3)
	res.set("tds.tuples_per_device", float64(collected)/float64(nDev))

	// The covering result as the SSI stored it: deposits in commit order.
	var tuples []protocol.WireTuple
	for _, d := range rec.deposits {
		tuples = append(tuples, d.Tuples...)
	}
	sample := tuples[:min(len(tuples), kernelTuples)]

	// tdscrypto: decrypt, then re-encrypt the same plaintexts both ways.
	// Det_Enc is timed on what the protocol feeds it: the encoded grouping
	// values under the noise protocols, the payload otherwise.
	plains := make([][]byte, len(sample))
	decNs := k.run("tdscrypto", "decrypt", len(sample), func() error {
		for i, w := range sample {
			if plains[i], err = k2.Decrypt(w.Ciphertext, aad); err != nil {
				return err
			}
		}
		return nil
	})
	ndetNs := k.run("tdscrypto", "ndet_enc", len(sample), func() error {
		for _, pt := range plains {
			if _, err := k2.NDetEncrypt(pt, aad); err != nil {
				return err
			}
		}
		return nil
	})
	detPlains := plains
	if noisy(post.Kind) {
		detPlains = make([][]byte, len(sample))
		for i, w := range sample {
			if detPlains[i], err = k2.Decrypt(w.Tag, aad); err != nil {
				return 0, fmt.Errorf("replay: open tag: %w", err)
			}
		}
	}
	detNs := k.run("tdscrypto", "det_enc", len(sample), func() error {
		for _, pt := range detPlains {
			if _, err := k2.DetEncrypt(pt, aad); err != nil {
				return err
			}
		}
		return nil
	})
	deposits := rec.deposits[:min(len(rec.deposits), kernelTuples)]
	committer := tdscrypto.NewCommitter(ring.K2)
	commitNs := k.run("tdscrypto", "commit", len(deposits), func() error {
		for _, d := range deposits {
			protocol.DepositCommitment(committer, d.QueryID, d.DeviceID, d.Attempt, d.Epoch, d.Tuples)
		}
		return nil
	})
	res.set("tdscrypto.decrypt_ns_per_tuple", decNs)
	res.set("tdscrypto.ndet_enc_ns_per_tuple", ndetNs)
	res.set("tdscrypto.det_enc_ns_per_tuple", detNs)
	res.set("tdscrypto.commit_ns_per_deposit", commitNs)
	if k.err != nil {
		return 0, k.err // everything below needs the plaintexts
	}

	// protocol: sealing an envelope (device side) and checking it (SSI
	// admit gate). The byte-level envelope codec is not on Execute's path.
	sealNs := k.run("protocol", "deposit_seal", len(deposits), func() error {
		for _, d := range deposits {
			protocol.NewDeposit(d.QueryID, d.DeviceID, d.Attempt, d.Epoch, d.Tuples)
		}
		return nil
	})
	checkNs := k.run("protocol", "deposit_check", len(deposits), func() error {
		for _, d := range deposits {
			if !d.IntegrityOK() {
				return fmt.Errorf("captured deposit of %s fails its checksum", d.DeviceID)
			}
		}
		return nil
	})
	res.set("protocol.deposit_seal_ns", sealNs)
	res.set("protocol.deposit_check_ns", checkNs)

	// storage: the row codec under every payload.
	var bodies [][]byte
	var rows []storage.Row
	for _, pt := range plains {
		marker, body, err := protocol.DecodePayload(pt)
		if err != nil {
			return 0, err
		}
		if marker == protocol.MarkerTrue {
			bodies = append(bodies, body)
		}
	}
	rows = make([]storage.Row, len(bodies))
	rowDecNs := k.run("storage", "row_decode", len(bodies), func() error {
		for i, b := range bodies {
			if rows[i], _, err = storage.DecodeRow(b); err != nil {
				return err
			}
		}
		return nil
	})
	var scratch []byte
	rowEncNs := k.run("storage", "row_encode", len(rows), func() error {
		for _, r := range rows {
			scratch = storage.AppendRow(scratch[:0], r)
		}
		return nil
	})
	res.set("storage.row_decode_ns_per_row", rowDecNs)
	res.set("storage.row_encode_ns_per_row", rowEncNs)

	// sqlexec accumulators: fold rows into groups, merge encoded partials.
	var foldNs, mergeNs float64
	if plan.IsAggregate() {
		var acc *sqlexec.Accumulator
		foldNs = k.run("sqlexec", "fold", len(rows), func() error {
			acc = sqlexec.NewAccumulator(plan)
			for _, r := range rows {
				if err := acc.AddCollectionRow(r); err != nil {
					return err
				}
			}
			return nil
		})
		if acc != nil && acc.NumGroups() > 0 {
			enc := acc.Encode()
			const merges = 50
			mergeNs = k.run("sqlexec", "merge", merges*acc.NumGroups(), func() error {
				into := sqlexec.NewAccumulator(plan)
				for i := 0; i < merges; i++ {
					if err := into.MergeEncoded(enc); err != nil {
						return err
					}
				}
				return nil
			})
		}
	}
	res.set("sqlexec.fold_ns_per_row", foldNs)
	res.set("sqlexec.merge_ns_per_group", mergeNs)

	// tds.Aggregate (FilterSFW for Select-From-Where) over the first-step
	// partitions: the captured tagged build, or deposit-order windows of
	// the size the engine's first phase used.
	parts := rec.parts
	if parts == nil && len(m.Phases) > 0 && m.Phases[0].Units > 0 {
		per := (len(tuples) + m.Phases[0].Units - 1) / m.Phases[0].Units
		for off := 0; off < len(tuples); off += per {
			parts = append(parts, tuples[off:min(off+per, len(tuples))])
		}
	}
	parts = parts[:min(len(parts), kernelPartitions)]
	worker := devices[0]
	aggNs := k.run("tds", "aggregate", len(parts), func() error {
		for _, p := range parts {
			switch post.Kind {
			case protocol.KindBasic:
				_, err = worker.FilterSFW(post, p)
			case protocol.KindSAgg:
				_, err = worker.Aggregate(post, p, tds.EmitWhole)
			default:
				_, err = worker.Aggregate(post, p, tds.EmitPerGroup)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	res.set("tds.aggregate_us_per_partition", aggNs/1e3)

	// obs: what one trace event and one journal record cost, weighted by
	// the query's own mix of the two.
	const events = 2000
	at := obs.SimOrigin()
	traceNs := k.run("obs", "trace_event", events, func() error {
		tr := obs.NewTracer()
		tr.StartQuery("replay", "execute", at)
		for i := 0; i < events; i++ {
			tr.EngineEvent("replay", "deposit", "tds-00000", at, obs.CipherFacts{Tuples: 1, Bytes: 64})
		}
		tr.Take("replay")
		return nil
	})
	journalNs := k.run("obs", "journal_event", events, func() error {
		j := obs.NewJournal()
		j.Begin("replay")
		for i := 0; i < events; i++ {
			j.Emit("replay", obs.JournalEvent{Kind: obs.JournalQueryStart, Party: obs.PartyEngine, At: at})
		}
		j.Take("replay")
		return nil
	})
	traceEvents := res.Metrics["obs.trace_events_per_query"].Value
	journalEvents := res.Metrics["obs.journal_events_per_query"].Value
	obsMs := (traceEvents*traceNs + journalEvents*journalNs) / 1e6
	res.set("obs.event_ns", obsMs*1e6/(traceEvents+journalEvents))
	res.set("obs.est_ms_per_query", obsMs)

	// faultplan: the per-device script lookup, with the plan the
	// workload's odd slots carry (nil, and nearly free, without churn).
	faults := fx.request(1).Faults
	forNs := k.run("faultplan", "for", nDev, func() error {
		for _, t := range devices {
			faults.For(t.ID, req.QueryID)
		}
		return nil
	})
	res.set("faultplan.for_ns_per_device", forNs)

	// Estimates: unit cost x this workload's mean counts per query. Every
	// collected tuple is encrypted once and decrypted once by the first
	// aggregation step; each deposit is committed by the device and again
	// by the verifier; every work unit's output but the last is merged by
	// a later unit; core seeds one RNG per device.
	nt := res.Metrics["core.tuples_per_query"].Value
	deps := res.Metrics["core.deposits_per_query"].Value
	devs := res.Metrics["core.devices_per_query"].Value
	trueShare := float64(m.TrueTuples) / float64(m.Nt)
	cryptoNs := nt*(ndetNs+decNs) + 2*deps*commitNs
	if noisy(post.Kind) {
		cryptoNs += nt * detNs
	}
	mergedGroups := res.Metrics["core.ptds_per_query"].Value - 1
	if post.Kind == protocol.KindSAgg {
		mergedGroups *= float64(m.Groups)
	}
	sqlexecNs := 2*compileNs + devs*localNs + nt*trueShare*foldNs + mergedGroups*mergeNs
	protocolNs := deps * (sealNs + checkNs)
	storageNs := nt*rowEncNs + nt*trueShare*rowDecNs
	res.set("tdscrypto.est_ms_per_query", cryptoNs/1e6)
	res.set("sqlexec.est_ms_per_query", sqlexecNs/1e6)
	res.set("protocol.est_ms_per_query", protocolNs/1e6)
	res.set("storage.est_ms_per_query", storageNs/1e6)
	return (cryptoNs+sqlexecNs+protocolNs+storageNs+devs*seedNs)/1e6 + obsMs, k.err
}
