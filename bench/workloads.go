package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/trustedcells/tcq/internal/accessctl"
	"github.com/trustedcells/tcq/internal/core"
	"github.com/trustedcells/tcq/internal/faultplan"
	"github.com/trustedcells/tcq/internal/obs"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/querier"
	"github.com/trustedcells/tcq/internal/ssi"
	"github.com/trustedcells/tcq/internal/storage"
	"github.com/trustedcells/tcq/internal/tdscrypto"
	"github.com/trustedcells/tcq/internal/workload"
)

const (
	aggSQL = `SELECT C.district, AVG(P.cons) FROM Power P, Consumer C ` +
		`WHERE C.cid = P.cid GROUP BY C.district`
	sfwSQL = `SELECT C.cid, C.district FROM Consumer C WHERE C.accommodation = 'flat'`
)

// query is one entry of a workload's round-robin.
type query struct {
	sql    string
	kind   protocol.Kind
	params protocol.Params
}

// spec is one workload. Every workload runs the smart-meter schema at
// AvailableFraction 0.5 in a closed loop; what differs is which stage of
// a query the shape makes expensive.
type spec struct {
	name      string
	fleet     int // devices
	readings  int // Power rows per device
	districts int // G
	queries   []query
	// server routes queries through core.Server with one client per core
	// and scripts churn on the odd ring slots.
	server bool
	// ring is how many pinned QueryIDs the window cycles over. A slot's
	// rows and simulated metrics are a pure function of (seed, QueryID),
	// so every slot has one expected answer, computed once.
	ring int
}

// The sizes are chosen so one query costs about 75 ms on the 2-core
// reference box (15 ms on server_mix): a 20 s window then holds 2.6 times
// the 100 samples a p90 needs, which leaves room for a slower or busier
// box, and 92 driver runs fit the run-time cap. BENCHMARK.json records why
// each workload was chosen; the comments below say which stage it stresses.
var specs = []spec{
	{
		// Per-device collection overhead is ~90% of a query.
		name:  "wide_fleet",
		fleet: 2000, readings: 2, districts: 10, ring: 30,
		queries: []query{{aggSQL, protocol.KindSAgg, protocol.Params{}}},
	},
	{
		// Same protocol, opposite shape: per-tuple crypto and codec, the
		// reduction tree and integrity dominate.
		name:  "deep_device",
		fleet: 100, readings: 300, districts: 10, ring: 30,
		queries: []query{{aggSQL, protocol.KindSAgg, protocol.Params{}}},
	},
	{
		// Det_Enc tags, PartitionByTag, fake tuples, 50-tuple deposits: ssi
		// and integrity carry weight they never carry under S_Agg. One
		// reading over 480 devices, not two over 240: with fewer devices
		// some seeds leave a district empty and N_t moves by 2%.
		name:  "noise_tagged",
		fleet: 480, readings: 1, districts: 50, ring: 30,
		queries: []query{{aggSQL, protocol.KindCNoise, protocol.Params{}}},
	},
	{
		// Many short concurrent queries: per-query fixed costs, ssi.Sharded
		// contention and the recovery paths decide the result.
		name:  "server_mix",
		fleet: 300, readings: 2, districts: 10, ring: 200, server: true,
		queries: []query{
			{sfwSQL, protocol.KindBasic, protocol.Params{}},
			{aggSQL, protocol.KindSAgg, protocol.Params{}},
			{aggSQL, protocol.KindRnfNoise, protocol.Params{Nf: 2}},
			{aggSQL, protocol.KindCNoise, protocol.Params{}},
			{aggSQL, protocol.KindEDHist, protocol.Params{}},
		},
	},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// clients is the closed-loop client count: one per core through the
// server, one otherwise.
func (s *spec) clients() int {
	if s.server {
		return runtime.NumCPU()
	}
	return 1
}

// setupWarmups is how many queries a set-up runs after provisioning, so
// that lazily built state (discovery cache, plan cache, heap growth)
// is paid inside setup_s and not inside the measured window.
const setupWarmups = 5

// fixture is one provisioned engine with its queriers.
type fixture struct {
	spec    *spec
	seed    int64
	gen     *workload.SmartMeter
	eng     *core.Engine
	srv     *core.Server // the clients' entry point when spec.server
	tenants []*querier.Querier
	// provision is the wall time of NewEngine + ProvisionFleet alone.
	provision time.Duration
}

// benchKey derives the fixed key material. The keys are not an input
// the workload varies; ciphertext bytes differ per run anyway (random
// nonces), sizes never do.
func benchKey(label string) tdscrypto.Key {
	return tdscrypto.DeriveKey(tdscrypto.Key{}, "bench/"+label)
}

// credentialExpiry is a day past the simulated origin every run starts at.
var credentialExpiry = obs.SimOrigin().Add(24 * time.Hour)

func (s *spec) generator(seed int64) *workload.SmartMeter {
	gen := workload.DefaultSmartMeter(seed)
	gen.Districts = s.districts
	gen.Readings = s.readings
	// Uniform district assignment: under the default Zipf skew the rare
	// districts are empty for some seeds, and G, the C_Noise fake count and
	// N_t with it would vary from seed to seed.
	gen.Skew = 0
	return gen
}

// policy lets the analyst role read tuples as well as aggregates: the
// server mix includes a Select-From-Where query, which an AggregateOnly
// rule would answer with dummies.
func benchPolicy() *accessctl.Policy {
	return &accessctl.Policy{Rules: []accessctl.Rule{{Role: "analyst"}}}
}

// setup generates the data, builds and provisions an engine, issues the
// credentials and runs the warm-up queries: everything setup_s covers.
// svc is the SSI to inject; nil selects the engine's default.
func setup(s *spec, seed int64, svc ssi.Service) (*fixture, error) {
	fx := &fixture{spec: s, seed: seed, gen: s.generator(seed)}
	start := time.Now()
	eng, err := core.NewEngine(core.Config{
		Schema:            fx.gen.Schema(),
		Policy:            benchPolicy(),
		AuthorityKey:      benchKey("authority"),
		MasterKey:         benchKey("master"),
		AvailableFraction: 0.5,
		SSI:               svc,
		Seed:              seed,
	})
	if err != nil {
		return nil, err
	}
	if err := eng.ProvisionFleet(s.fleet, fx.gen.HouseholdDB); err != nil {
		return nil, err
	}
	fx.provision = time.Since(start)
	fx.eng = eng
	for _, id := range []string{"edf", "engie"} {
		cred := eng.Authority().Issue(id, []string{"analyst"}, credentialExpiry)
		q, err := querier.New(id, eng.K1(), cred, eng.Schema())
		if err != nil {
			return nil, err
		}
		fx.tenants = append(fx.tenants, q)
	}
	fx.srv = core.NewServer(eng, core.ServerConfig{MaxInFlight: runtime.NumCPU()})
	for j := 0; j < setupWarmups; j++ {
		req := fx.request(j)
		req.QueryID = fmt.Sprintf("%s-%d-w%d", s.name, seed, j)
		if _, err := fx.do(req); err != nil {
			fx.close()
			return nil, fmt.Errorf("warm-up %s: %w", req.QueryID, err)
		}
	}
	return fx, nil
}

func (fx *fixture) close() { fx.srv.Close() }

// churned reports whether ring slot i carries the churn plan.
func (fx *fixture) churned(i int) bool { return fx.spec.server && i%2 == 1 }

// request builds the pinned request of ring slot i.
func (fx *fixture) request(i int) core.Request {
	q := fx.spec.queries[i%len(fx.spec.queries)]
	req := core.Request{
		Querier: fx.tenants[i%len(fx.tenants)],
		SQL:     q.sql,
		Kind:    q.kind,
		Params:  q.params,
		QueryID: fmt.Sprintf("%s-%d-%d", fx.spec.name, fx.seed, i),
	}
	if fx.churned(i) {
		// No coverage floor and no attempt cap: every churned query still
		// answers, with whatever coverage the script left it. The SSI's
		// timeouts are a fraction of a fault-free query's simulated T_Q
		// (10 to 40 ms). Under the package defaults (2 s per crash)
		// sim_tq_ms would count crashes and nothing else, and the crash
		// count of a ring varies by 14% from seed to seed; the host-side
		// cost of the recovery paths does not depend on the simulated wait.
		req.Faults = &faultplan.Plan{
			Seed:            fx.seed,
			OfflineFraction: 0.10,
			DropFraction:    0.05,
			CorruptFraction: 0.05,
			CrashFraction:   0.10,
			DepositTimeout:  100 * time.Millisecond,
			PhaseTimeout:    5 * time.Millisecond,
			BackoffBase:     time.Millisecond,
			BackoffCap:      8 * time.Millisecond,
		}
	}
	return req
}

// do runs one request the way the workload's clients do.
func (fx *fixture) do(req core.Request) (*core.Response, error) {
	if fx.spec.server {
		return fx.srv.Submit(context.Background(), req)
	}
	return fx.eng.Execute(context.Background(), req)
}

// databases regenerates every device's database, for the reference
// answers; the engine consumed its own copies at provisioning.
func (fx *fixture) databases() []*storage.LocalDB {
	dbs := make([]*storage.LocalDB, fx.spec.fleet)
	for i := range dbs {
		dbs[i] = fx.gen.HouseholdDB(i)
	}
	return dbs
}
