// Package tds implements the Trusted Data Server: the tamper-resistant
// element of trust of the architecture (Section 2.1). A TDS hosts a slice
// of the global database, enforces the access-control policy of its
// holder, and participates in the collection, aggregation and filtering
// phases of the querying protocols. Nothing leaves the device in
// plaintext; the only output a TDS can deliver is a set of encrypted
// tuples (Section 3.2, "Security").
package tds

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/trustedcells/tcq/internal/accessctl"
	"github.com/trustedcells/tcq/internal/histogram"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/rng"
	"github.com/trustedcells/tcq/internal/sqlexec"
	"github.com/trustedcells/tcq/internal/storage"
	"github.com/trustedcells/tcq/internal/tdscrypto"
)

// TDS is one trusted data server.
type TDS struct {
	ID        string
	DB        *storage.LocalDB
	Policy    *accessctl.Policy
	Authority *accessctl.Authority

	// Shared is an optional fleet-wide per-query table installed by the
	// engine. A device's admission of a post — open it with the serving
	// material's k1, check the credential's signature, evaluate the policy,
	// compile the plan — is a function of (post, key material, schema,
	// authority, policy), so the first device holding a combination decides
	// and the others read its record: one open per (post, key material).
	// A device holding another key — a stale epoch, dropped grace material —
	// meets only its own record and keeps failing at the open. Expiry is
	// each device's own clock against the post, never shared. Det_Enc tags
	// are shared per expanded key (groupTag). Nil computes on every call.
	Shared *PlanCache

	// Corrupt marks a compromised device for the extended threat model
	// (the paper's future work). A corrupt TDS holds valid keys and
	// follows the wire protocol, but silently drops half of the true
	// tuples and partial aggregations it is asked to fold — producing
	// well-formed, wrongly valued results. It is a simulation hook; real
	// tamper-resistant hardware is assumed to prevent this (Section 2.2).
	Corrupt bool

	// Key material, guarded by matMu: a live rotation (Migrate) swaps the
	// primary while collection workers are mid-call, so every access goes
	// through matFor / a snapshot under the lock. The primary is the
	// device's enrollment epoch; prev is the previous epoch's material,
	// retained during a rotation grace window so queries posted before
	// the boundary still open on a migrated device.
	matMu     sync.RWMutex
	epoch     int // primary enrollment epoch, wire numbering (0 = legacy)
	km        *KeyMaterial
	prev      *KeyMaterial
	prevEpoch int
}

// New creates a TDS with its key ring, database and access policy.
func New(id string, db *storage.LocalDB, ring tdscrypto.KeyRing,
	policy *accessctl.Policy, authority *accessctl.Authority) (*TDS, error) {
	km, err := NewKeyMaterial(ring)
	if err != nil {
		return nil, err
	}
	return NewWithMaterial(id, db, km, policy, authority), nil
}

// KeyMaterial is the expanded cryptographic state of one key ring: AES key
// schedules, pooled HMAC states, bucket hasher and committer. Every device
// enrolled at the same epoch holds an identical ring, so the expansion is
// identical too — a packed fleet expands a ring once per epoch and shares
// the result across every device of a connection wave instead of paying
// the key schedules per device. All components are safe for concurrent
// use, so one KeyMaterial can back many TDSs at once.
type KeyMaterial struct {
	K1, K2     *tdscrypto.Suite
	BucketHash *tdscrypto.BucketHasher
	AuditMAC   *tdscrypto.MACPool
	Committer  *tdscrypto.Committer
}

// NewKeyMaterial expands a key ring into ready-to-use cipher state.
func NewKeyMaterial(ring tdscrypto.KeyRing) (*KeyMaterial, error) {
	s1, err := tdscrypto.NewSuite(ring.K1)
	if err != nil {
		return nil, err
	}
	s2, err := tdscrypto.NewSuite(ring.K2)
	if err != nil {
		return nil, err
	}
	return &KeyMaterial{
		K1: s1, K2: s2,
		BucketHash: tdscrypto.NewBucketHasher(ring.K2),
		AuditMAC:   tdscrypto.NewMACPool(ring.K2),
		Committer:  tdscrypto.NewCommitter(ring.K2),
	}, nil
}

// NewWithMaterial creates a TDS that borrows already-expanded key
// material. Behavior is indistinguishable from New over the same ring;
// only the expansion cost is shared.
func NewWithMaterial(id string, db *storage.LocalDB, km *KeyMaterial,
	policy *accessctl.Policy, authority *accessctl.Authority) *TDS {
	return &TDS{ID: id, DB: db, Policy: policy, Authority: authority, km: km}
}

// Epoch returns the device's primary enrollment epoch (wire numbering;
// 0 on fleets that never set one).
func (t *TDS) Epoch() int {
	t.matMu.RLock()
	defer t.matMu.RUnlock()
	return t.epoch
}

// SetEpoch stamps the enrollment epoch at provisioning time.
func (t *TDS) SetEpoch(epoch int) {
	t.matMu.Lock()
	t.epoch = epoch
	t.matMu.Unlock()
}

// Migrate installs a new primary key material — the device applied a
// trust bundle — keeping the old primary as grace material so queries
// posted at the old epoch keep opening mid-flight. Safe to call while
// other goroutines are inside Collect/Aggregate: in-progress calls finish
// on the material they resolved, subsequent calls resolve the new state.
func (t *TDS) Migrate(epoch int, km *KeyMaterial) {
	t.matMu.Lock()
	t.prev, t.prevEpoch = t.km, t.epoch
	t.km, t.epoch = km, epoch
	t.matMu.Unlock()
}

// DropGrace forgets the previous epoch's material — the grace window
// closed; stale-epoch queries must fail to open from here on.
func (t *TDS) DropGrace() {
	t.matMu.Lock()
	t.prev, t.prevEpoch = nil, 0
	t.matMu.Unlock()
}

// matFor resolves the key material serving one posted query: the grace
// material when the query predates this device's migration and the
// window is still open, the primary otherwise. Epoch 0 posts (legacy
// fleets) always resolve the primary.
func (t *TDS) matFor(post *protocol.QueryPost) *KeyMaterial {
	t.matMu.RLock()
	defer t.matMu.RUnlock()
	if t.prev != nil && post.Epoch != 0 && post.Epoch == t.prevEpoch {
		return t.prev
	}
	return t.km
}

// ServesEpoch reports whether the device currently holds material able
// to open queries posted at the given wire epoch: its primary epoch, its
// grace epoch while the window is open, or anything when either side
// predates epoch stamping (0).
func (t *TDS) ServesEpoch(epoch int) bool {
	t.matMu.RLock()
	defer t.matMu.RUnlock()
	return epoch == 0 || t.epoch == 0 || t.epoch == epoch ||
		(t.prev != nil && t.prevEpoch == epoch)
}

// CommitDeposit seals a collection deposit with the device's k2-keyed
// commitment (Section 2.2's tamper-resistance, extended to the wire): the
// MAC binds query, device, attempt, epoch and every tuple, so the SSI can
// neither thin out the deposit nor claim coverage it discarded without
// the querier-side verifier noticing. Only a key holder — a TDS — can
// produce it, which is exactly what the weakly malicious SSI is not.
//
// The commitment is always the device's primary material binding its own
// enrollment epoch — the epoch the deposit envelope declares — so the
// verifier can recompute it per deposit from the declared epoch alone,
// even when a rotation grace window has devices of two epochs answering
// one query. Devices that never set an epoch bind the posted one, the
// pre-rotation wire behavior. The bound epoch is returned with the MAC,
// read under the same lock, so the envelope can never declare another.
func (t *TDS) CommitDeposit(post *protocol.QueryPost, attempt int, tuples []protocol.WireTuple) (commit []byte, epoch int) {
	t.matMu.RLock()
	c, epoch := t.km.Committer, t.epoch
	t.matMu.RUnlock()
	if epoch == 0 {
		epoch = post.Epoch
	}
	return protocol.DepositCommitment(c, post.ID, t.ID, attempt, epoch, tuples), epoch
}

// PlanCache shares across a fleet, for the life of one query, what every
// device would compute identically: one table per query ID, holding the
// admission records and the Det_Enc tags. Each is keyed by every input of
// its value — an admission by (post, key material, schema, authority,
// policy), a tag by (key material, encoded group), Det_Enc being a function
// of k2, the query's AAD and the plaintext, and a *KeyMaterial one expanded
// ring — so a device only ever reads what a device holding exactly its own
// inputs computed. Safe for concurrent use.
type PlanCache struct {
	mu      sync.RWMutex
	queries map[string]queryTable // by query ID; a missing table reads as empty
}

type queryTable struct {
	admissions map[admissionKey]*admission
	tags       map[tagKey][]byte
}

type admissionKey struct {
	post      *protocol.QueryPost
	km        *KeyMaterial
	schema    *storage.Schema
	authority *accessctl.Authority
	policy    *accessctl.Policy
}

type tagKey struct {
	km    *KeyMaterial
	group string // storage.AppendRow of the grouping values
}

// admission is step 3 of Fig. 2 decided for one key: the compiled plan of
// the opened query, or why it does not open or compile, and whether the
// credential's signature and the policy grant the querier true tuples.
type admission struct {
	once    sync.Once // the first device holding the key decides
	plan    *sqlexec.Plan
	err     error
	granted bool
}

// NewPlanCache returns an empty cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{queries: make(map[string]queryTable)}
}

// table returns a query's table, created on first use; c.mu is held.
func (c *PlanCache) table(id string) queryTable {
	if _, ok := c.queries[id]; !ok {
		c.queries[id] = queryTable{make(map[admissionKey]*admission), make(map[tagKey][]byte)}
	}
	return c.queries[id]
}

// Drop forgets the table of a finished query.
func (c *PlanCache) Drop(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.queries, id)
}

// tag returns the shared Det_Enc tag of one encoded group, nil on a miss.
// A key literal in the index expression converts group without allocating.
func (c *PlanCache) tag(id string, km *KeyMaterial, group []byte) []byte {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.queries[id].tags[tagKey{km, string(group)}]
}

func (c *PlanCache) putTag(id string, km *KeyMaterial, group, tag []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.table(id).tags[tagKey{km, string(group)}] = tag
}

// admission returns the record of one key, inserted undecided on first use.
func (c *PlanCache) admission(id string, k admissionKey) *admission {
	if c == nil { // no fleet to share with: the caller decides alone
		return new(admission)
	}
	c.mu.RLock()
	a := c.queries[id].admissions[k]
	c.mu.RUnlock()
	if a != nil {
		return a
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	q := c.table(id)
	if a = q.admissions[k]; a == nil {
		a = new(admission)
		q.admissions[k] = a
	}
	return a
}

// admit returns this device's admission of the post under the material
// serving it — the plan, whether true tuples are granted, or what stopped
// it — decided here or by the first device that held the same key, with the
// whole of step 3 under that material's own k1: a stale epoch fails here.
func (t *TDS) admit(m *KeyMaterial, post *protocol.QueryPost) (*sqlexec.Plan, bool, error) {
	a := t.Shared.admission(post.ID, admissionKey{post, m, t.DB.Schema(), t.Authority, t.Policy})
	a.once.Do(func() {
		stmt, err := post.OpenQuery(m.K1)
		if err == nil {
			a.plan, err = sqlexec.Compile(stmt, t.DB.Schema())
		}
		a.err = err
		a.granted = err == nil && t.Authority.Signed(&post.Credential) &&
			t.Policy.Authorize(post.Credential, stmt) == nil
	})
	return a.plan, a.granted, a.err
}

// CollectConfig carries per-protocol collection-phase inputs.
type CollectConfig struct {
	// Domain is the A_G domain used to draw fake grouping values:
	// sampled uniformly by Rnf_Noise, enumerated exhaustively by C_Noise.
	Domain []storage.Row
	// Hist is the previously discovered equi-depth histogram (ED_Hist).
	Hist *histogram.Histogram
	// Rng drives fake-tuple generation; the engine seeds it per TDS.
	Rng *rand.Rand
	// Now is the simulated wall-clock time for credential expiry checks.
	Now time.Time
	// Arena optionally slab-allocates the ciphertexts and tags this call
	// produces. Nil means plain allocations; output bytes are identical
	// either way. The caller must not share one arena across concurrent
	// Collect calls.
	Arena *tdscrypto.Arena
	// Out is the buffer the call's tuples are appended to, from its start
	// (a window slot's buffer, from its last device); nil allocates one.
	Out []protocol.WireTuple
}

// CollectStats instruments the collection step for the simulation's
// metrics; nothing in it reaches the SSI (which only sees ciphertexts).
type CollectStats struct {
	True, Fake, Dummy int
	Denied            bool
}

// collectScratch holds buffers reused across one call's tuple loop, plus
// the key material the call resolved — one resolve per call, so a
// rotation landing mid-call cannot split it across epochs. The encryption
// schemes copy plaintexts into fresh ciphertext buffers, so reusing the
// plaintext scratch across tuples is safe.
type collectScratch struct {
	m       *KeyMaterial     // material serving this call
	payload []byte           // marker + encoded row plaintext
	tag     []byte           // encoded grouping values / bucket identifier
	key     []byte           // controlledFakes: the true group's key, then a candidate's
	row     storage.Row      // assembled fake row
	arena   *tdscrypto.Arena // optional slab for ciphertexts and tags
}

// Collect performs the collection-phase work of this TDS: admit the query
// (admit: decrypt it, verify the querier credential, evaluate the access
// policy), execute it locally, and return encrypted wire tuples.
//
// Per steps 4/4' of Fig. 2, an empty local result or a denied query still
// yields one dummy tuple, non-deterministically encrypted, so the SSI can
// not learn the query's selectivity or the policy decision.
func (t *TDS) Collect(post *protocol.QueryPost, cfg CollectConfig) ([]protocol.WireTuple, CollectStats, error) {
	var stats CollectStats
	m := t.matFor(post)
	plan, granted, err := t.admit(m, post)
	if err != nil {
		return nil, stats, err
	}
	authorized := granted && !cfg.Now.After(post.Credential.Expiry) // this device's own clock
	stats.Denied = !authorized

	sc := collectScratch{m: m, arena: cfg.Arena}
	out := cfg.Out[:0]
	if authorized {
		// Each row is tagged, encrypted and joined by its fakes as the scan yields it.
		err = plan.ScanLocal(t.DB, func(row storage.Row) error {
			tag, err := t.collectionTag(post, plan, cfg, row, &sc)
			if err != nil {
				return err
			}
			sc.payload = protocol.AppendRowPayload(sc.payload[:0], protocol.MarkerTrue, row)
			w, err := t.encryptTuple(m, post, sc.payload, tag, sc.arena)
			if err != nil {
				return err
			}
			n := len(out)
			out = append(out, w)
			stats.True++
			switch post.Kind { // noise injection
			case protocol.KindRnfNoise:
				out, err = t.randomFakes(post, plan, cfg, post.Params.Nf, out, &sc)
			case protocol.KindCNoise:
				out, err = t.controlledFakes(post, plan, cfg, row, out, &sc)
			}
			stats.Fake += len(out) - n - 1
			return err
		})
		if err != nil {
			return nil, stats, fmt.Errorf("tds %s: local execution: %w", t.ID, err)
		}
	}
	if len(out) == 0 {
		// Dummy sized like a plausible tuple of this plan. In the tagged
		// protocols the dummy carries a plausible random tag, otherwise its
		// taglessness would let the SSI single it out.
		tag, err := t.dummyTag(post, cfg, &sc)
		if err != nil {
			return nil, stats, err
		}
		sc.payload = protocol.AppendDummyPayload(sc.payload[:0], t.sampleBodySize(plan))
		w, err := t.encryptTuple(m, post, sc.payload, tag, sc.arena)
		if err != nil {
			return nil, stats, err
		}
		stats.Dummy++
		out = append(out, w)
	}
	return out, stats, nil
}

// sampleBodySize estimates the encoded size of a plausible tuple so
// dummies blend in.
func (t *TDS) sampleBodySize(plan *sqlexec.Plan) int {
	n := plan.CollectionWidth()
	if n == 0 {
		n = len(plan.OutputNames)
	}
	if n == 0 {
		n = 1
	}
	return 1 + 9*n
}

// dummyTag picks a plausible routing tag for a dummy tuple so the SSI
// cannot distinguish it from true traffic.
func (t *TDS) dummyTag(post *protocol.QueryPost, cfg CollectConfig, sc *collectScratch) ([]byte, error) {
	switch post.Kind {
	case protocol.KindRnfNoise, protocol.KindCNoise:
		if len(cfg.Domain) == 0 {
			return nil, fmt.Errorf("tds %s: %v requires the A_G domain", t.ID, post.Kind)
		}
		return t.groupTag(post, cfg.Domain[cfg.Rng.Intn(len(cfg.Domain))], sc)
	case protocol.KindEDHist:
		if cfg.Hist == nil {
			return nil, fmt.Errorf("tds %s: ED_Hist requires a histogram", t.ID)
		}
		buckets := cfg.Hist.Buckets()
		b := buckets[cfg.Rng.Intn(len(buckets))]
		sc.tag = append(sc.tag[:0], b.ID...)
		return sc.m.BucketHash.Sum(sc.tag), nil
	default:
		return nil, nil
	}
}

// collectionTag derives the cleartext routing tag of a true collection
// tuple, per protocol.
func (t *TDS) collectionTag(post *protocol.QueryPost, plan *sqlexec.Plan,
	cfg CollectConfig, row storage.Row, sc *collectScratch) ([]byte, error) {
	switch post.Kind {
	case protocol.KindBasic, protocol.KindSAgg:
		return nil, nil
	case protocol.KindRnfNoise, protocol.KindCNoise:
		return t.groupTag(post, groupValues(plan, row), sc)
	case protocol.KindEDHist:
		if cfg.Hist == nil {
			return nil, fmt.Errorf("tds %s: ED_Hist requires a histogram", t.ID)
		}
		bucket, _ := cfg.Hist.BucketOf(groupValues(plan, row).Key())
		sc.tag = append(sc.tag[:0], bucket...)
		return sc.m.BucketHash.Sum(sc.tag), nil
	default:
		return nil, fmt.Errorf("tds %s: unknown protocol %v", t.ID, post.Kind)
	}
}

// groupValues extracts the A_G prefix of a collection row.
func groupValues(plan *sqlexec.Plan, row storage.Row) storage.Row {
	return row[:len(plan.GroupCols)]
}

// groupTag is Det_Enc_k2 over the encoded grouping values, bound to the
// query by its AAD. The encoding goes through the scratch buffer. The tag
// is one value per (query, material, group), so it is looked up in the
// fleet-shared table and computed, with the serving material's own k2,
// only on a miss; like every tuple field it is never written again.
func (t *TDS) groupTag(post *protocol.QueryPost, group storage.Row, sc *collectScratch) ([]byte, error) {
	sc.tag = storage.AppendRow(sc.tag[:0], group)
	if t.Shared != nil {
		if tag := t.Shared.tag(post.ID, sc.m, sc.tag); tag != nil {
			return tag, nil
		}
	}
	tag, err := sc.m.K2.DetEncryptArena(sc.tag, post.AAD(), sc.arena)
	if err == nil && t.Shared != nil {
		t.Shared.putTag(post.ID, sc.m, sc.tag, tag)
	}
	return tag, err
}

// randomFakes appends nf fake tuples whose A_G values are drawn uniformly
// from the domain (Rnf_Noise). The aggregate inputs are random too; the
// fake marker inside the ciphertext lets honest TDSs discard them.
func (t *TDS) randomFakes(post *protocol.QueryPost, plan *sqlexec.Plan,
	cfg CollectConfig, nf int, out []protocol.WireTuple, sc *collectScratch) ([]protocol.WireTuple, error) {
	if len(cfg.Domain) == 0 {
		return nil, fmt.Errorf("tds %s: Rnf_Noise requires the A_G domain", t.ID)
	}
	for i := 0; i < nf; i++ {
		g := cfg.Domain[cfg.Rng.Intn(len(cfg.Domain))]
		w, err := t.encryptFake(post, t.fakeRow(plan, cfg, g, sc), g, sc)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// controlledFakes appends one fake per domain value different from the true
// tuple's group (C_Noise): the resulting tag distribution is flat by
// construction.
func (t *TDS) controlledFakes(post *protocol.QueryPost, plan *sqlexec.Plan,
	cfg CollectConfig, trueRow storage.Row, out []protocol.WireTuple, sc *collectScratch) ([]protocol.WireTuple, error) {
	if len(cfg.Domain) == 0 {
		return nil, fmt.Errorf("tds %s: C_Noise requires the A_G domain", t.ID)
	}
	sc.key = groupValues(plan, trueRow).AppendKey(sc.key[:0])
	n := len(sc.key)
	for _, g := range cfg.Domain {
		sc.key = g.AppendKey(sc.key[:n])
		if bytes.Equal(sc.key[n:], sc.key[:n]) {
			continue
		}
		w, err := t.encryptFake(post, t.fakeRow(plan, cfg, g, sc), g, sc)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// fakeRow assembles a full fake collection row for group g, reusing the
// scratch row buffer (the row is encoded and discarded before the next
// fake is built).
func (t *TDS) fakeRow(plan *sqlexec.Plan, cfg CollectConfig, g storage.Row, sc *collectScratch) storage.Row {
	sc.row = append(sc.row[:0], g...)
	for range plan.Aggs {
		sc.row = append(sc.row, storage.Float(cfg.Rng.NormFloat64()*100))
	}
	return sc.row
}

func (t *TDS) encryptFake(post *protocol.QueryPost, row storage.Row, group storage.Row, sc *collectScratch) (protocol.WireTuple, error) {
	tag, err := t.groupTag(post, group, sc)
	if err != nil {
		return protocol.WireTuple{}, err
	}
	sc.payload = protocol.AppendRowPayload(sc.payload[:0], protocol.MarkerFake, row)
	return t.encryptTuple(sc.m, post, sc.payload, tag, sc.arena)
}

func (t *TDS) encryptTuple(m *KeyMaterial, post *protocol.QueryPost, payload, tag []byte, ar *tdscrypto.Arena) (protocol.WireTuple, error) {
	ct, err := m.K2.NDetEncryptArena(payload, post.AAD(), ar)
	if err != nil {
		return protocol.WireTuple{}, fmt.Errorf("tds %s: encrypt: %w", t.ID, err)
	}
	return protocol.WireTuple{Tag: tag, Ciphertext: ct}, nil
}

// partitionFingerprint hashes the ciphertexts of a partition. Replicas of
// the same partition compute the same fingerprint; it binds audit digests
// to one partition so the SSI cannot link equal contents across
// partitions.
func partitionFingerprint(partition []protocol.WireTuple) []byte {
	h := sha256.New()
	for _, w := range partition {
		h.Write(w.Tag)
		h.Write(w.Ciphertext)
	}
	return h.Sum(nil)
}

// corruptDrop decides whether a compromised device silently drops the
// i-th payload of a partition. The pattern is keyed by the device ID:
// two independently compromised devices corrupt differently, so their
// forged results do not accidentally agree under the audit (a genuinely
// colluding pair producing byte-identical forgeries can still outvote a
// single honest replica — the usual bound of majority-based auditing).
func (t *TDS) corruptDrop(i int) bool {
	h := rng.Hash(t.ID)
	h ^= uint32(i)
	h *= 16777619
	h ^= h >> 15
	return h%2 == 0
}

// Domain separators of auditDigest, hoisted off the per-call heap.
var (
	auditPrefix = []byte("audit/")
	auditSep    = []byte{0}
)

// auditDigest MACs semantic output content under the serving material's
// k2, bound to the query and the input partition. Honest replicas of one
// partition produce equal digests for equal semantic results — including
// across a rotation grace window, where a migrated replica serving
// through its grace material and an unmigrated one serving through its
// primary resolve the same epoch's k2. The SSI can compare but not open.
func (t *TDS) auditDigest(m *KeyMaterial, post *protocol.QueryPost, fingerprint, semantic []byte) []byte {
	mac := m.AuditMAC.Get()
	mac.Write(auditPrefix)
	mac.Write(post.AAD())
	mac.Write(auditSep)
	mac.Write(fingerprint)
	mac.Write(auditSep)
	mac.Write(semantic)
	var sum [sha256.Size]byte
	out := make([]byte, 16)
	copy(out, mac.Sum(sum[:0]))
	m.AuditMAC.Put(mac)
	return out
}

// EmitMode selects what an aggregation step returns.
type EmitMode int

// Emission shapes of the aggregation phase.
const (
	// EmitWhole returns one untagged blob holding the full partial
	// aggregation (S_Agg's iterative steps).
	EmitWhole EmitMode = iota
	// EmitPerGroup returns one tagged tuple per accumulated group
	// (noise protocols and both ED_Hist aggregation phases).
	EmitPerGroup
)

// Aggregate performs one aggregation-phase step (steps 6-8 of Fig. 2):
// download a partition, decrypt it, discard dummy and fake tuples, fold
// raw collection tuples and partial aggregations into an accumulator, and
// return the re-encrypted partial result.
func (t *TDS) Aggregate(post *protocol.QueryPost, partition []protocol.WireTuple, emit EmitMode) ([]protocol.WireTuple, error) {
	m := t.matFor(post)
	plan, _, err := t.admit(m, post)
	if err != nil {
		return nil, err
	}
	fp := partitionFingerprint(partition)
	acc := sqlexec.NewAccumulator(plan)
	payloads := 0
	// One plaintext buffer and one decoded row serve the whole partition:
	// the accumulator copies what it keeps.
	var pt []byte
	var dec storage.RowDecoder
	for _, w := range partition {
		if pt, err = m.K2.DecryptTo(pt[:0], w.Ciphertext, post.AAD()); err != nil {
			return nil, fmt.Errorf("tds %s: decrypt partition tuple: %w", t.ID, err)
		}
		marker, body, err := protocol.DecodePayload(pt)
		if err != nil {
			return nil, fmt.Errorf("tds %s: %w", t.ID, err)
		}
		if marker == protocol.MarkerDummy || marker == protocol.MarkerFake {
			continue
		}
		payloads++
		if t.Corrupt && t.corruptDrop(payloads) {
			continue // a compromised device silently drops work
		}
		switch marker {
		case protocol.MarkerTrue:
			row, n, err := dec.Decode(body)
			if err != nil || n != len(body) {
				return nil, fmt.Errorf("tds %s: bad collection row: %v", t.ID, err)
			}
			if err := acc.AddCollectionRow(row); err != nil {
				return nil, fmt.Errorf("tds %s: %w", t.ID, err)
			}
		case protocol.MarkerPartial:
			if err := acc.MergeEncoded(body); err != nil {
				return nil, fmt.Errorf("tds %s: merge partial: %w", t.ID, err)
			}
		}
	}

	if acc.NumGroups() == 0 {
		// All input was noise: contribute a dummy so the SSI still sees a
		// response of plausible size. The audit digest covers the semantic
		// outcome ("empty"), not the random padding, so honest replicas
		// still agree.
		w, err := t.encryptTuple(m, post, protocol.DummyPayload(t.sampleBodySize(plan)), nil, nil)
		if err != nil {
			return nil, err
		}
		w.Digest = t.auditDigest(m, post, fp, []byte("empty"))
		return []protocol.WireTuple{w}, nil
	}

	switch emit {
	case EmitWhole:
		enc := acc.Encode()
		w, err := t.encryptTuple(m, post, protocol.EncodePayload(protocol.MarkerPartial, enc), nil, nil)
		if err != nil {
			return nil, err
		}
		w.Digest = t.auditDigest(m, post, fp, enc)
		return []protocol.WireTuple{w}, nil
	case EmitPerGroup:
		groups := acc.Groups()
		out := make([]protocol.WireTuple, 0, len(groups))
		sc := collectScratch{m: m}
		var enc []byte
		for _, g := range groups {
			tag, err := t.groupTag(post, g.Values, &sc)
			if err != nil {
				return nil, err
			}
			enc = sqlexec.AppendGroup(enc[:0], plan, g)
			sc.payload = append(sc.payload[:0], byte(protocol.MarkerPartial))
			sc.payload = append(sc.payload, enc...)
			w, err := t.encryptTuple(m, post, sc.payload, tag, sc.arena)
			if err != nil {
				return nil, err
			}
			w.Digest = t.auditDigest(m, post, fp, enc)
			out = append(out, w)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("tds %s: unknown emit mode %d", t.ID, emit)
	}
}

// FilterSFW performs the filtering phase of the basic protocol
// (steps 10-12 of Fig. 2): decrypt the partition, remove dummy tuples and
// re-encrypt the true tuples with k1 for the querier.
func (t *TDS) FilterSFW(post *protocol.QueryPost, partition []protocol.WireTuple) ([]protocol.WireTuple, error) {
	m := t.matFor(post)
	fp := partitionFingerprint(partition)
	var out []protocol.WireTuple
	var pt, payload []byte // plaintext scratch; re-encryption copies out of it
	var err error
	kept := 0
	for _, w := range partition {
		if pt, err = m.K2.DecryptTo(pt[:0], w.Ciphertext, post.AAD()); err != nil {
			return nil, fmt.Errorf("tds %s: decrypt: %w", t.ID, err)
		}
		marker, body, err := protocol.DecodePayload(pt)
		if err != nil {
			return nil, fmt.Errorf("tds %s: %w", t.ID, err)
		}
		if marker != protocol.MarkerTrue {
			continue
		}
		kept++
		if t.Corrupt && t.corruptDrop(kept) {
			continue
		}
		payload = append(payload[:0], byte(protocol.MarkerTrue))
		payload = append(payload, body...)
		ct, err := m.K1.NDetEncrypt(payload, post.AAD())
		if err != nil {
			return nil, fmt.Errorf("tds %s: re-encrypt: %w", t.ID, err)
		}
		out = append(out, protocol.WireTuple{
			Ciphertext: ct,
			Digest:     t.auditDigest(m, post, fp, body),
		})
	}
	return out, nil
}

// FinalizeGroups performs the filtering phase of the aggregate protocols:
// merge the final per-group partial aggregations of the partition,
// evaluate HAVING, compute the SELECT list, and encrypt the surviving
// result tuples with k1. forceEmpty requests the one-row semantics of a
// global aggregate over an empty input.
func (t *TDS) FinalizeGroups(post *protocol.QueryPost, partition []protocol.WireTuple, forceEmpty bool) ([]protocol.WireTuple, error) {
	m := t.matFor(post)
	plan, _, err := t.admit(m, post)
	if err != nil {
		return nil, err
	}
	fp := partitionFingerprint(partition)
	acc := sqlexec.NewAccumulator(plan)
	sawPartial := false
	merged := 0
	var pt []byte // plaintext scratch; MergeEncoded copies out of it
	for _, w := range partition {
		if pt, err = m.K2.DecryptTo(pt[:0], w.Ciphertext, post.AAD()); err != nil {
			return nil, fmt.Errorf("tds %s: decrypt: %w", t.ID, err)
		}
		marker, body, err := protocol.DecodePayload(pt)
		if err != nil {
			return nil, fmt.Errorf("tds %s: %w", t.ID, err)
		}
		if marker != protocol.MarkerPartial {
			continue
		}
		sawPartial = true
		merged++
		if t.Corrupt && t.corruptDrop(merged) {
			continue
		}
		if err := acc.MergeEncoded(body); err != nil {
			return nil, fmt.Errorf("tds %s: %w", t.ID, err)
		}
	}
	if !sawPartial && !forceEmpty {
		return nil, nil
	}
	res, err := acc.Finalize()
	if err != nil {
		return nil, fmt.Errorf("tds %s: finalize: %w", t.ID, err)
	}
	out := make([]protocol.WireTuple, 0, len(res.Rows))
	var payload []byte
	for _, row := range res.Rows {
		payload = protocol.AppendRowPayload(payload[:0], protocol.MarkerTrue, row)
		ct, err := m.K1.NDetEncrypt(payload, post.AAD())
		if err != nil {
			return nil, fmt.Errorf("tds %s: encrypt result: %w", t.ID, err)
		}
		out = append(out, protocol.WireTuple{
			Ciphertext: ct,
			Digest:     t.auditDigest(m, post, fp, payload[1:]),
		})
	}
	return out, nil
}
