// Package tds implements the Trusted Data Server: the tamper-resistant
// element of trust of the architecture (Section 2.1). A TDS hosts a slice
// of the global database, enforces the access-control policy of its
// holder, and participates in the collection, aggregation and filtering
// phases of the querying protocols. Nothing leaves the device in
// plaintext; the only output a TDS can deliver is a set of encrypted
// tuples (Section 3.2, "Security").
package tds

import (
	"cmp"
	"crypto/sha256"
	"fmt"
	"hash"
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
	// are one table per expanded key and domain (tagTable). Nil shares none.
	Shared *PlanCache

	// Corrupt marks a compromised device for the extended threat model
	// (the paper's future work). A corrupt TDS holds valid keys and
	// follows the wire protocol, but silently drops half of the true
	// tuples and partial aggregations it is asked to fold — producing
	// well-formed, wrongly valued results. It is a simulation hook; real
	// tamper-resistant hardware is assumed to prevent this (Section 2.2).
	Corrupt bool

	// fold is what the device folds partitions in (foldScratch), made on
	// its first fold: a device is not safe for concurrent folds.
	fold *foldScratch

	// last is the fleet records the device read last: a device re-aimed at
	// the next slot of the same query reads its admission and tag table
	// here, not under the table's lock. Forget clears it.
	last memo

	// Key material. The primary is the device's enrollment epoch; prev is
	// the previous epoch's material, held while a rotation's grace window
	// is open so queries posted before the boundary still open on a
	// migrated device.
	epoch int // primary enrollment epoch, wire numbering (1 at enrollment)
	km    *KeyMaterial
	prev  *KeyMaterial // serves epoch-1; nil outside a grace window
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
// identical too — a fleet expands a ring once per epoch and shares the
// result across every device it wakes instead of paying the key schedules
// per device. All components are safe for concurrent use, so one
// KeyMaterial can back many TDSs at once.
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
// material, enrolled at wire epoch 1. Behavior is indistinguishable from
// New over the same ring; only the expansion cost is shared.
func NewWithMaterial(id string, db *storage.LocalDB, km *KeyMaterial,
	policy *accessctl.Policy, authority *accessctl.Authority) *TDS {
	return &TDS{ID: id, DB: db, Policy: policy, Authority: authority, km: km, epoch: 1}
}

// Epoch returns the device's primary enrollment epoch (wire numbering).
func (t *TDS) Epoch() int { return t.epoch }

// SetKeys installs the device's key material: km as the primary of the
// given enrollment epoch (wire numbering), and prev, when not nil, as the
// grace material of the epoch before. A device that applied a rotation's
// trust bundle holds both while the grace window is open, so queries
// posted at the old epoch keep opening on it; a nil prev is the window
// closed, and stale-epoch queries fail to open from there on. A device is
// not safe to re-key while another goroutine is inside one of its calls.
func (t *TDS) SetKeys(epoch int, km, prev *KeyMaterial) {
	t.epoch, t.km, t.prev = epoch, km, prev
}

// matFor resolves the key material serving one posted query: the grace
// material when the query predates this device's migration and the
// window is still open, the primary otherwise.
func (t *TDS) matFor(post *protocol.QueryPost) *KeyMaterial {
	if t.prev != nil && post.Epoch == t.epoch-1 {
		return t.prev
	}
	return t.km
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
// one query. The bound epoch is returned with the MAC, so the envelope
// can never declare another.
func (t *TDS) CommitDeposit(dst *[tdscrypto.CommitSize]byte, post *protocol.QueryPost, attempt int, tuples []protocol.WireTuple) (epoch int) {
	protocol.SumDepositCommitment(dst, t.km.Committer, post.ID, t.ID, attempt, t.epoch, tuples)
	return t.epoch
}

// PlanCache shares across a fleet, for the life of one query, what every
// device would compute identically: one table per query ID, holding the
// admission records and the Det_Enc tag tables. Each is keyed by every
// input of its value — an admission by (post, key material, schema,
// authority, policy), a tag table by (key material, domain), Det_Enc being
// a function of k2, the query's AAD and the plaintext, and a *KeyMaterial
// one expanded ring — so a device only ever reads what a device holding
// exactly its own inputs computed. Safe for concurrent use.
type PlanCache struct {
	mu      sync.Mutex
	queries map[string]queryTable // by query ID; a missing table reads as empty
}

type queryTable struct {
	admissions map[admissionKey]*admission
	tags       map[domainKey]*tagTable
}

type admissionKey struct {
	post      *protocol.QueryPost
	km        *KeyMaterial
	schema    *storage.Schema
	authority *accessctl.Authority
	policy    *accessctl.Policy
}

// domainKey names a tag table: its material and its A_G domain by identity.
type domainKey struct {
	km     *KeyMaterial
	first  *storage.Row
	groups int
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

// tagTable is a query's Det_Enc tags by domain position, built by the
// first build (with the m it is keyed by) and only read after, with no
// lock: tags[i] is Det_Enc_k2 of storage.AppendRow(domain[i]) under the
// post's AAD, and pos maps each encoded group to its position.
type tagTable struct {
	once   sync.Once
	domain []storage.Row
	tags   [][]byte
	pos    map[string]int
	err    error
}

func (tt *tagTable) build(m *KeyMaterial, post *protocol.QueryPost) ([][]byte, map[string]int, error) {
	tt.once.Do(func() {
		tt.tags, tt.pos = make([][]byte, len(tt.domain)), make(map[string]int, len(tt.domain))
		var enc []byte
		for i := 0; i < len(tt.domain) && tt.err == nil; i++ {
			enc = storage.AppendRow(enc[:0], tt.domain[i])
			tt.pos[string(enc)] = i
			tt.tags[i], tt.err = m.K2.DetEncrypt(enc, post.AAD())
		}
	})
	return tt.tags, tt.pos, tt.err
}

// NewPlanCache returns an empty cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{queries: make(map[string]queryTable)}
}

// table returns a query's table, created on first use; c.mu is held.
func (c *PlanCache) table(id string) queryTable {
	if _, ok := c.queries[id]; !ok {
		c.queries[id] = queryTable{make(map[admissionKey]*admission), make(map[domainKey]*tagTable)}
	}
	return c.queries[id]
}

// Drop forgets the table of a finished query.
func (c *PlanCache) Drop(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.queries, id)
}

// entry returns the value under k in one of a query's maps, made by mk on
// first use; a device reads it once per query (its memo). With no fleet to
// share with (a nil cache) the caller gets a value of its own.
func entry[K comparable, V any](c *PlanCache, id string, k K, in func(queryTable) map[K]*V, mk func() *V) *V {
	if c == nil {
		return mk()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	m := in(c.table(id))
	v := m[k]
	if v == nil {
		v = mk()
		m[k] = v
	}
	return v
}

// admission returns the record of one key, inserted undecided on first use.
func (c *PlanCache) admission(id string, k admissionKey) *admission {
	return entry(c, id, k, func(q queryTable) map[admissionKey]*admission { return q.admissions },
		func() *admission { return new(admission) })
}

// tagTableFor returns the query's tag table over a non-empty domain under
// km, inserted unbuilt on first use.
func (c *PlanCache) tagTableFor(id string, km *KeyMaterial, domain []storage.Row) *tagTable {
	return entry(c, id, domainKey{km, &domain[0], len(domain)},
		func(q queryTable) map[domainKey]*tagTable { return q.tags },
		func() *tagTable { return &tagTable{domain: domain} })
}

// tagTableOf returns a tag table of the query under km, over whichever
// domain its collection was handed; nil if there is none.
func (c *PlanCache) tagTableOf(id string, km *KeyMaterial) (tt *tagTable) {
	if c != nil {
		c.mu.Lock()
		for k, v := range c.queries[id].tags {
			if k.km == km {
				tt = v
			}
		}
		c.mu.Unlock()
	}
	return tt
}

// memo is a device's last admission, of one key, and its tag table.
type memo struct {
	key  admissionKey
	a    *admission
	dom  domainKey
	tags *tagTable
}

// Forget clears the device's memo, so a pooled device retains no post,
// and releases its fold arena: the outputs of every step it ran are void.
func (t *TDS) Forget() {
	t.last = memo{}
	if t.fold != nil {
		t.fold.arena.Release()
	}
}

// admit returns this device's admission of the post under the material
// serving it — the plan, whether true tuples are granted, or what stopped
// it — decided here or by the first device that held the same key, with the
// whole of step 3 under that material's own k1: a stale epoch fails here.
func (t *TDS) admit(m *KeyMaterial, post *protocol.QueryPost) (*sqlexec.Plan, bool, error) {
	if k := (admissionKey{post, m, t.DB.Schema(), t.Authority, t.Policy}); t.Shared == nil || t.last.key != k {
		t.last = memo{key: k, a: t.Shared.admission(post.ID, k)} // a device alone decides on every call
	}
	a := t.last.a
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

// tagTable returns the tag table over domain of the post admit last read
// under m, from the memo.
func (t *TDS) tagTable(post *protocol.QueryPost, m *KeyMaterial, domain []storage.Row) *tagTable {
	if dom := (domainKey{m, &domain[0], len(domain)}); t.last.tags == nil || t.last.dom != dom {
		t.last.dom, t.last.tags = dom, t.Shared.tagTableFor(post.ID, m, domain)
	}
	return t.last.tags
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
	// Arena optionally slab-allocates the ciphertexts this call
	// produces. Nil means plain allocations; output bytes are identical
	// either way. The caller must not share one arena across concurrent
	// Collect calls.
	Arena *tdscrypto.Arena
	// Out is the buffer the call's tuples are appended to, from its start
	// (a window slot's buffer, from its last device); nil allocates one.
	Out []protocol.WireTuple
	// Scratch is the collection worker's, reused by every Collect it runs;
	// nil makes one for the call.
	Scratch *Scratch
}

// CollectStats instruments the collection step for the simulation's
// metrics; nothing in it reaches the SSI (which only sees ciphertexts).
type CollectStats struct {
	True, Fake, Dummy int
	Denied            bool
}

// Scratch is the RAM a collection worker runs each Collect in — the scan
// state, the plaintext and tag buffers — and the key material and tag
// table the call resolved. The encryption schemes copy plaintexts into
// fresh ciphertexts, so the buffers are reused across tuples and calls.
type Scratch struct {
	scan    sqlexec.Scan
	m       *KeyMaterial     // material serving this call
	tags    [][]byte         // Det_Enc tag by domain position
	pos     map[string]int   // domain position by encoded group
	at      int              // the last groupTag's position, -1 outside the domain
	payload []byte           // marker + encoded row plaintext
	tag     []byte           // encoded grouping values / bucket identifier
	row     storage.Row      // assembled fake row
	arena   *tdscrypto.Arena // optional slab for ciphertexts
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

	sc := cfg.Scratch
	if sc == nil { // a call of its own, its payload sized once with room for a row of short texts
		sc = &Scratch{payload: make([]byte, 0, 2*t.sampleBodySize(plan))}
	}
	sc.m, sc.arena, sc.tags, sc.pos = m, cfg.Arena, nil, nil
	noise := post.Kind == protocol.KindRnfNoise || post.Kind == protocol.KindCNoise
	switch {
	case noise && len(cfg.Domain) == 0:
		return nil, stats, fmt.Errorf("tds %s: %v requires the A_G domain", t.ID, post.Kind)
	case noise:
		if sc.tags, sc.pos, err = t.tagTable(post, m, cfg.Domain).build(m, post); err != nil {
			return nil, stats, err
		}
	case post.Kind == protocol.KindEDHist && cfg.Hist == nil:
		return nil, stats, fmt.Errorf("tds %s: ED_Hist requires a histogram", t.ID)
	case post.Kind == protocol.KindEDHist && len(cfg.Domain) > 0 && t.Shared != nil:
		t.tagTable(post, m, cfg.Domain) // the per-group emission builds it
	}
	out := cfg.Out[:0]
	if authorized {
		// Each row is tagged, encrypted and joined by its fakes as the scan yields it.
		err = plan.ScanLocal(&sc.scan, t.DB, func(row storage.Row) error {
			tag, err := t.collectionTag(post, plan, cfg, row, sc)
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
			if sc.tags != nil { // noise injection
				out, err = t.fakes(post, plan, cfg, out, sc)
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
		sc.payload = protocol.AppendDummyPayload(sc.payload[:0], t.sampleBodySize(plan))
		w, err := t.encryptTuple(m, post, sc.payload, t.dummyTag(post, cfg, sc), sc.arena)
		if err != nil {
			return nil, stats, err
		}
		stats.Dummy++
		out = append(out, w)
	}
	return out, stats, nil
}

// sampleBodySize estimates the encoded size of a plausible tuple so
// dummies blend in: nine bytes a value, of one value at least.
func (t *TDS) sampleBodySize(plan *sqlexec.Plan) int {
	return 1 + 9*max(cmp.Or(plan.CollectionWidth(), len(plan.OutputNames)), 1)
}

// dummyTag picks a plausible routing tag for a dummy tuple so the SSI
// cannot distinguish it from true traffic.
func (t *TDS) dummyTag(post *protocol.QueryPost, cfg CollectConfig, sc *Scratch) []byte {
	switch post.Kind {
	case protocol.KindRnfNoise, protocol.KindCNoise:
		return sc.tags[cfg.Rng.Intn(len(sc.tags))]
	case protocol.KindEDHist:
		buckets := cfg.Hist.Buckets()
		sc.tag = append(sc.tag[:0], buckets[cfg.Rng.Intn(len(buckets))].ID...)
		return sc.m.BucketHash.Sum(sc.tag)
	default:
		return nil
	}
}

// collectionTag derives the cleartext routing tag of a true collection
// tuple, per protocol.
func (t *TDS) collectionTag(post *protocol.QueryPost, plan *sqlexec.Plan,
	cfg CollectConfig, row storage.Row, sc *Scratch) ([]byte, error) {
	switch post.Kind {
	case protocol.KindBasic, protocol.KindSAgg:
		return nil, nil
	case protocol.KindRnfNoise, protocol.KindCNoise:
		return t.groupTag(post, row[:len(plan.GroupCols)], sc)
	case protocol.KindEDHist:
		bucket, _ := cfg.Hist.BucketOf(row[:len(plan.GroupCols)].Key())
		sc.tag = append(sc.tag[:0], bucket...)
		return sc.m.BucketHash.Sum(sc.tag), nil
	default:
		return nil, fmt.Errorf("tds %s: unknown protocol %v", t.ID, post.Kind)
	}
}

// groupTag is Det_Enc_k2 over the encoded grouping values, bound to the
// query by its AAD: read from the call's tag table at the group's
// position, which it leaves in sc.at, or — for a group outside the
// domain, or a call without a table — computed with the serving
// material's own k2. Like every tuple field the tag is never written.
func (t *TDS) groupTag(post *protocol.QueryPost, group storage.Row, sc *Scratch) ([]byte, error) {
	sc.tag = storage.AppendRow(sc.tag[:0], group)
	i, ok := sc.pos[string(sc.tag)]
	if !ok {
		sc.at = -1
		return sc.m.K2.DetEncrypt(sc.tag, post.AAD())
	}
	sc.at = i
	return sc.tags[i], nil
}

// fakes appends the fake tuples joining one true tuple: Nf whose A_G
// values are drawn uniformly from the domain (Rnf_Noise), or one per domain
// position other than the true tuple's, which its tag lookup left in sc.at
// (C_Noise: the tag distribution is flat by construction). The aggregate
// inputs are random too; the fake marker inside the ciphertext lets honest
// TDSs discard them. The row is assembled in the scratch buffer.
func (t *TDS) fakes(post *protocol.QueryPost, plan *sqlexec.Plan,
	cfg CollectConfig, out []protocol.WireTuple, sc *Scratch) ([]protocol.WireTuple, error) {
	random, n := post.Kind == protocol.KindRnfNoise, len(cfg.Domain)
	if random {
		n = post.Params.Nf
	}
	for i := range n {
		if random {
			i = cfg.Rng.Intn(len(cfg.Domain))
		} else if i == sc.at {
			continue
		}
		sc.row = append(sc.row[:0], cfg.Domain[i]...)
		for range plan.Aggs {
			sc.row = append(sc.row, storage.Float(cfg.Rng.NormFloat64()*100))
		}
		sc.payload = protocol.AppendRowPayload(sc.payload[:0], protocol.MarkerFake, sc.row)
		w, err := t.encryptTuple(sc.m, post, sc.payload, sc.tags[i], sc.arena)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

func (t *TDS) encryptTuple(m *KeyMaterial, post *protocol.QueryPost, payload, tag []byte, ar *tdscrypto.Arena) (protocol.WireTuple, error) {
	ct, err := m.K2.NDetEncryptArena(payload, post.AAD(), ar)
	if err != nil {
		return protocol.WireTuple{}, fmt.Errorf("tds %s: encrypt: %w", t.ID, err)
	}
	return protocol.WireTuple{Tag: tag, Ciphertext: ct}, nil
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

// Domain separators of the audit digest (seal), hoisted off the per-call
// heap, and the semantic outcome of a fold that found only noise.
var (
	auditPrefix = []byte("audit/")
	auditSep    = []byte{0}
	emptyResult = []byte("empty")
)

// foldScratch is the RAM a device folds every partition it opens in, like
// the token's one partial-aggregate structure (Section 4.2), so a warm fold
// allocates only what it emits. That is never scratch: ciphertexts and
// digests are carved from the arena, which Forget releases, so a step's
// output may feed later steps. Texts and keys are interned per plan.
type foldScratch struct {
	plan    *sqlexec.Plan // of the last fold
	acc     sqlexec.Accumulator
	dec     storage.RowDecoder // collection rows
	pt      []byte             // a tuple's plaintext
	payload []byte             // a result's plaintext
	sc      Scratch            // per-group tags
	fp      hash.Hash          // the partition's fingerprint state
	fpSum   [sha256.Size]byte  // the partition's fingerprint
	audit   hash.Hash          // an audit MAC state of auditOf's k2
	auditOf *KeyMaterial       // the material the scratch last sealed under
	mac     [sha256.Size]byte  // a digest's MAC, before truncation
	arena   tdscrypto.Arena
}

// scratch returns the device's fold scratch, made on first use, with its
// accumulator reset for plan (nil: a filtering step, which folds nothing).
func (t *TDS) scratch(plan *sqlexec.Plan) *foldScratch {
	if t.fold == nil {
		t.fold = &foldScratch{fp: sha256.New()}
	}
	s := t.fold
	if plan != nil {
		if plan != s.plan {
			s.plan, s.dec = plan, storage.RowDecoder{}
		}
		s.acc.Reset(plan)
	}
	return s
}

// open fingerprints a partition over every tag and ciphertext byte (its
// replicas compute one, and audit digests bind it), then opens each tuple
// into the one plaintext buffer, authenticated by GCM, and hands f the
// body of each whose marker is in want (bits 1<<marker) unless a
// compromised device drops it. It returns how many had a wanted marker.
func (s *foldScratch) open(t *TDS, m *KeyMaterial, post *protocol.QueryPost, partition []protocol.WireTuple,
	want uint8, f func(protocol.MarkerByte, []byte) error) (int, error) {
	s.fp.Reset()
	for _, w := range partition {
		s.fp.Write(w.Tag)
		s.fp.Write(w.Ciphertext)
	}
	s.fp.Sum(s.fpSum[:0])
	kept := 0
	for _, w := range partition {
		var err error
		if s.pt, err = m.K2.DecryptTo(s.pt[:0], w.Ciphertext, post.AAD()); err != nil {
			return kept, fmt.Errorf("tds %s: decrypt partition tuple: %w", t.ID, err)
		}
		marker, body, err := protocol.DecodePayload(s.pt)
		if err != nil {
			return kept, fmt.Errorf("tds %s: %w", t.ID, err)
		}
		if want&(1<<marker) == 0 {
			continue
		}
		kept++
		if t.Corrupt && t.corruptDrop(kept) {
			continue // a compromised device silently drops work
		}
		if err := f(marker, body); err != nil {
			return kept, err
		}
	}
	return kept, nil
}

// seal encrypts the scratch's payload under k (k2 for a step, k1 for the
// querier) with its audit digest: a MAC of the semantic content under the
// serving material's k2, bound to the query and the partition's
// fingerprint. Honest replicas produce equal digests for equal results,
// across a rotation grace window too (both sides resolve the same epoch's
// k2). The SSI can compare but not open.
func (s *foldScratch) seal(t *TDS, m *KeyMaterial, post *protocol.QueryPost, k *tdscrypto.Suite, tag, semantic []byte) (protocol.WireTuple, error) {
	ct, err := k.NDetEncryptArena(s.payload, post.AAD(), &s.arena)
	if err != nil {
		return protocol.WireTuple{}, fmt.Errorf("tds %s: encrypt: %w", t.ID, err)
	}
	if s.auditOf != m {
		s.audit, s.auditOf = m.AuditMAC.Get(), m
	}
	s.audit.Reset()
	for _, b := range [...][]byte{auditPrefix, post.AAD(), auditSep, s.fpSum[:], auditSep, semantic} {
		s.audit.Write(b)
	}
	digest := s.arena.Alloc(16)[:16]
	copy(digest, s.audit.Sum(s.mac[:0]))
	return protocol.WireTuple{Tag: tag, Ciphertext: ct, Digest: digest}, nil
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
// raw collection tuples and partial aggregations into the device's
// accumulator, and return the re-encrypted partial result.
func (t *TDS) Aggregate(post *protocol.QueryPost, partition []protocol.WireTuple, emit EmitMode) ([]protocol.WireTuple, error) {
	m := t.matFor(post)
	plan, _, err := t.admit(m, post)
	if err != nil {
		return nil, err
	}
	s := t.scratch(plan)
	_, err = s.open(t, m, post, partition, 1<<protocol.MarkerTrue|1<<protocol.MarkerPartial, func(marker protocol.MarkerByte, body []byte) error {
		if marker == protocol.MarkerPartial {
			if err := s.acc.MergeEncoded(body); err != nil {
				return fmt.Errorf("tds %s: merge partial: %w", t.ID, err)
			}
			return nil
		}
		row, n, err := s.dec.Decode(body)
		if err != nil || n != len(body) {
			return fmt.Errorf("tds %s: bad collection row: %v", t.ID, err)
		}
		if err := s.acc.AddCollectionRow(row); err != nil {
			return fmt.Errorf("tds %s: %w", t.ID, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var w protocol.WireTuple
	switch {
	case s.acc.NumGroups() == 0:
		// All input was noise: contribute a dummy so the SSI still sees a
		// response of plausible size. The audit digest covers the semantic
		// outcome ("empty"), not the random padding, so honest replicas
		// still agree.
		s.payload = protocol.AppendDummyPayload(s.payload[:0], t.sampleBodySize(plan))
		w, err = s.seal(t, m, post, m.K2, nil, emptyResult)
		return []protocol.WireTuple{w}, err
	case emit == EmitWhole:
		s.payload = append(append(s.payload[:0], byte(protocol.MarkerPartial)), s.acc.Encode()...)
		w, err = s.seal(t, m, post, m.K2, nil, s.payload[1:])
		return []protocol.WireTuple{w}, err
	case emit != EmitPerGroup:
		return nil, fmt.Errorf("tds %s: unknown emit mode %d", t.ID, emit)
	}
	// One tuple per group, tagged with the group's Det_Enc tag.
	groups := s.acc.Groups()
	out := make([]protocol.WireTuple, 0, len(groups))
	s.sc.m, s.sc.tags, s.sc.pos = m, nil, nil
	if tt := t.Shared.tagTableOf(post.ID, m); tt != nil {
		if s.sc.tags, s.sc.pos, err = tt.build(m, post); err != nil {
			return nil, err
		}
	}
	for _, g := range groups {
		tag, err := t.groupTag(post, g.Values, &s.sc)
		if err != nil {
			return nil, err
		}
		s.payload = sqlexec.AppendGroup(append(s.payload[:0], byte(protocol.MarkerPartial)), plan, g)
		w, err := s.seal(t, m, post, m.K2, tag, s.payload[1:])
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// FilterSFW performs the filtering phase of the basic protocol
// (steps 10-12 of Fig. 2): decrypt the partition, remove dummy tuples and
// re-encrypt the true tuples with k1 for the querier.
func (t *TDS) FilterSFW(post *protocol.QueryPost, partition []protocol.WireTuple) ([]protocol.WireTuple, error) {
	m := t.matFor(post)
	s := t.scratch(nil)
	var out []protocol.WireTuple
	_, err := s.open(t, m, post, partition, 1<<protocol.MarkerTrue, func(_ protocol.MarkerByte, body []byte) error {
		s.payload = append(append(s.payload[:0], byte(protocol.MarkerTrue)), body...)
		w, err := s.seal(t, m, post, m.K1, nil, body)
		out = append(out, w)
		return err
	})
	if err != nil {
		return nil, err
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
	s := t.scratch(plan)
	partials, err := s.open(t, m, post, partition, 1<<protocol.MarkerPartial, func(_ protocol.MarkerByte, body []byte) error {
		if err := s.acc.MergeEncoded(body); err != nil {
			return fmt.Errorf("tds %s: %w", t.ID, err)
		}
		return nil
	})
	if err != nil || (partials == 0 && !forceEmpty) {
		return nil, err
	}
	res, err := s.acc.Finalize()
	if err != nil {
		return nil, fmt.Errorf("tds %s: finalize: %w", t.ID, err)
	}
	out := make([]protocol.WireTuple, 0, len(res.Rows))
	for _, row := range res.Rows {
		s.payload = protocol.AppendRowPayload(s.payload[:0], protocol.MarkerTrue, row)
		w, err := s.seal(t, m, post, m.K1, nil, s.payload[1:])
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}
