// Package protocol defines the wire formats and parameters shared by the
// querying protocols of the paper: the basic Select-From-Where protocol
// (Section 3.2) and the Group-By protocols S_Agg, Rnf_Noise, C_Noise and
// ED_Hist (Section 4).
//
// Everything the SSI stores or relays is either cleartext-by-design (the
// SIZE clause, querier credentials) or ciphertext under keys it does not
// hold. A wire tuple optionally carries a Tag the SSI may use to assemble
// partitions: absent for S_Agg (random partitioning), Det_Enc(A_G) for the
// noise protocols, h(bucketId) for ED_Hist.
package protocol

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/trustedcells/tcq/internal/accessctl"
	"github.com/trustedcells/tcq/internal/sqlparse"
	"github.com/trustedcells/tcq/internal/storage"
	"github.com/trustedcells/tcq/internal/tdscrypto"
)

// Kind selects the querying protocol.
type Kind int

// The protocols of the paper.
const (
	// KindBasic is the Select-From-Where protocol of Section 3.2
	// (collection + filtering, no aggregation phase).
	KindBasic Kind = iota
	// KindSAgg is the secure aggregation protocol of Section 4.2:
	// nDet_Enc everywhere, random partitions, iterative merging with
	// reduction factor alpha.
	KindSAgg
	// KindRnfNoise is the random-noise protocol of Section 4.3: Det_Enc
	// on A_G plus nf random fake tuples per true tuple.
	KindRnfNoise
	// KindCNoise is the controlled-noise protocol of Section 4.3: one
	// fake tuple for every other value of the A_G domain, flattening the
	// observed distribution by construction.
	KindCNoise
	// KindEDHist is the equi-depth histogram protocol of Section 4.4.
	KindEDHist
)

// String returns the paper's name for the protocol.
func (k Kind) String() string {
	switch k {
	case KindBasic:
		return "Basic"
	case KindSAgg:
		return "S_Agg"
	case KindRnfNoise:
		return "Rnf_Noise"
	case KindCNoise:
		return "C_Noise"
	case KindEDHist:
		return "ED_Hist"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Params carries per-protocol tuning. Zero values select the paper's
// defaults.
type Params struct {
	// Alpha is the S_Agg reduction factor (α ≥ 2); 0 selects the optimal
	// α_op ≈ 3.6 derived in Section 6.1.1 (rounded to 4 partitions-per-TDS
	// in the discrete implementation).
	Alpha float64
	// Nf is the number of fake tuples each TDS adds per true tuple in
	// Rnf_Noise.
	Nf int
	// NumBuckets is M, the equi-depth histogram size for ED_Hist; 0
	// derives M from the discovered number of groups and CollisionFactor.
	NumBuckets int
	// CollisionFactor is the target h = G/M of ED_Hist when NumBuckets is
	// 0; 0 selects the paper's experiment default h = 5.
	CollisionFactor float64
	// PartitionTuples caps the tuples per partition fed to one TDS; 0
	// derives it from the calibration's 4 KB partition size.
	PartitionTuples int
}

// MarkerByte classifies the plaintext payload of a wire tuple once a TDS
// has decrypted it. The marker travels inside the ciphertext: the SSI can
// never separate dummy or fake tuples from true ones (footnote 8 — dummies
// prevent the SSI from learning query selectivity).
type MarkerByte byte

// Payload markers.
const (
	MarkerTrue    MarkerByte = 1 // a real result/collection tuple
	MarkerDummy   MarkerByte = 2 // empty result or access denied (step 4')
	MarkerFake    MarkerByte = 3 // noise injected by Rnf_Noise / C_Noise
	MarkerPartial MarkerByte = 4 // an encoded partial aggregation
)

// WireTuple is one unit stored at the SSI. Tag is cleartext routing
// information whose privacy cost is analysed in Section 5; Ciphertext is
// opaque to the SSI.
//
// Digest supports the compromised-TDS extension (the paper's future work:
// "extend the threat model to a small number of compromised TDSs"): a
// deterministic MAC under k2 of the *semantic* content a TDS produced for
// a partition. The SSI cannot open it, but it can compare the digests of
// two TDSs assigned the same partition — honest replicas agree, a
// tampering device stands out and is outvoted. Digests are keyed and bound
// to the partition, so they reveal no cross-partition equality.
type WireTuple struct {
	Tag        []byte
	Ciphertext []byte
	Digest     []byte
}

// Size returns the bytes this tuple occupies at the SSI.
func (w WireTuple) Size() int { return len(w.Tag) + len(w.Ciphertext) + len(w.Digest) }

// TotalSize returns the bytes a tuple batch occupies at the SSI — the
// unit every byte-accounting consumer (metrics, traces, the curious
// observation ledger) shares.
func TotalSize(ws []WireTuple) int {
	n := 0
	for _, w := range ws {
		n += w.Size()
	}
	return n
}

// Deposit is the envelope a TDS uploads at step 4 of Fig. 2. The tuples
// themselves are ciphertext; the envelope adds the cleartext metadata an
// availability-agnostic SSI needs to survive churn:
//
//   - DeviceID and Attempt let it reject replays — a deposit re-sent after
//     a retransmission (same device, same or earlier attempt) is stale and
//     must not be stored twice;
//   - Epoch pins the fleet key epoch the device held, so a deposit recorded
//     before a key rotation cannot be replayed into a later query;
//   - Sum is a transport checksum over the tuples, so a device that
//     disconnects mid-upload or a corrupted transfer is detected and
//     discarded instead of poisoning the covering result.
//
// None of this weakens the privacy analysis: the SSI already knows which
// device connected when (Section 5); the envelope carries no plaintext the
// honest-but-curious ledger did not have.
type Deposit struct {
	QueryID  string
	DeviceID string
	// Attempt is the device's 1-based retry counter for this query.
	Attempt int
	// Epoch is the 1-based fleet key epoch the depositing device holds;
	// the SSI admits it only at the query's posted epoch or inside an open
	// grace window.
	Epoch  int
	Tuples []WireTuple
	// Sum is the transport checksum over the tuples — see Checksum.
	Sum uint64
	// Commit is the depositing TDS's k2-keyed integrity commitment over
	// (QueryID, DeviceID, Attempt, Epoch, Tuples) — see DepositCommitment.
	// Unlike Sum, which any party can recompute and which only catches
	// accidental corruption, Commit is unforgeable without k2: a verifier
	// holding the fleet key can prove the stored tuples are exactly the
	// ones this device sealed, in order, nothing dropped, duplicated or
	// replayed from another context. Every device seals one.
	Commit []byte
}

// NewDeposit assembles a sealed envelope: the checksum is computed over
// the tuples at build time, so any later in-flight mutation is detectable.
func NewDeposit(queryID, deviceID string, attempt, epoch int, tuples []WireTuple) *Deposit {
	return &Deposit{QueryID: queryID, DeviceID: deviceID, Attempt: attempt,
		Epoch: epoch, Tuples: tuples, Sum: Checksum(tuples)}
}

// Checksum is the transport checksum of a deposit's tuples: an FNV-1a
// style xor-multiply chain that takes each field eight bytes at a time
// (little-endian words, the last one zero-padded), after the field's
// length, so neither a tuple nor a field boundary can be shifted without
// detection. Every step is a bijection of the running state, so any change
// confined to one word — a flipped bit, say — always changes the sum.
func Checksum(tuples []WireTuple) uint64 {
	h := uint64(14695981039346656037)
	for i := range tuples {
		w := &tuples[i]
		h = mixField(mixField(mixField(h, w.Tag), w.Ciphertext), w.Digest)
	}
	return h
}

func mixField(h uint64, b []byte) uint64 {
	const prime = 1099511628211
	h = (h ^ uint64(len(b))) * prime
	for ; len(b) >= 8; b = b[8:] {
		h = (h ^ binary.LittleEndian.Uint64(b)) * prime
	}
	if len(b) > 0 {
		var tail [8]byte
		copy(tail[:], b)
		h = (h ^ binary.LittleEndian.Uint64(tail[:])) * prime
	}
	return h
}

// IntegrityOK reports whether the tuples still match the sealed checksum.
func (d *Deposit) IntegrityOK() bool { return d.Sum == Checksum(d.Tuples) }

// DepositCommitment computes the k2-keyed leaf commitment a TDS seals over
// one deposit: a MAC binding the query, the device, its attempt counter,
// the key epoch and every tuple byte, with length framing throughout. The
// same function serves both sides — the TDS commits what it uploads, the
// verifier recommits what the SSI claims to have stored — so any
// infrastructure-side mutation of the envelope or its context fails the
// comparison.
func DepositCommitment(c *tdscrypto.Committer, queryID, deviceID string,
	attempt, epoch int, tuples []WireTuple) []byte {
	return SumDepositCommitment(new([tdscrypto.CommitSize]byte), c, queryID, deviceID, attempt, epoch, tuples)
}

// SumDepositCommitment is DepositCommitment into the caller's array: a
// verifier that only compares the leaf keeps it on its stack.
func SumDepositCommitment(dst *[tdscrypto.CommitSize]byte, c *tdscrypto.Committer,
	queryID, deviceID string, attempt, epoch int, tuples []WireTuple) []byte {
	leaf := c.StartCommit("deposit")
	leaf.AddString(queryID)
	leaf.AddString(deviceID)
	leaf.AddUint64(uint64(attempt))
	leaf.AddUint64(uint64(epoch))
	CommitTuples(leaf, tuples)
	return leaf.SumTo(dst)
}

// CommitTuples absorbs every field of every tuple, in order, into a
// streamed commitment — three length-framed segments per tuple, the shape
// every tuple-bearing commitment (deposit leaves, partition leaves) uses.
func CommitTuples(leaf *tdscrypto.FoldStream, tuples []WireTuple) {
	for i := range tuples {
		w := &tuples[i]
		leaf.Add(w.Tag)
		leaf.Add(w.Ciphertext)
		leaf.Add(w.Digest)
	}
}

// DecodePayload splits a decrypted payload into marker and body.
func DecodePayload(b []byte) (MarkerByte, []byte, error) {
	if len(b) == 0 {
		return 0, nil, fmt.Errorf("protocol: empty payload")
	}
	m := MarkerByte(b[0])
	if m < MarkerTrue || m > MarkerPartial {
		return 0, nil, fmt.Errorf("protocol: unknown payload marker %d", b[0])
	}
	return m, b[1:], nil
}

// AppendDummyPayload appends a dummy payload to dst and returns the
// result: padded with random bytes, so that its ciphertext is
// indistinguishable in size from a true tuple's. Encryption copies the
// payload into the ciphertext, so callers may reuse dst across tuples.
func AppendDummyPayload(dst []byte, bodySize int) []byte {
	dst = append(dst, byte(MarkerDummy))
	start := len(dst)
	var zeros [64]byte
	for n := bodySize; n > 0; n -= len(zeros) {
		if n < len(zeros) {
			dst = append(dst, zeros[:n]...)
			break
		}
		dst = append(dst, zeros[:]...)
	}
	if _, err := rand.Read(dst[start:]); err != nil {
		// crypto/rand failure is unrecoverable for the process.
		panic(fmt.Sprintf("protocol: entropy: %v", err))
	}
	return dst
}

// AppendRowPayload appends marker + encoded row to dst and returns the
// result; hot loops reuse one scratch buffer across tuples.
func AppendRowPayload(dst []byte, m MarkerByte, row storage.Row) []byte {
	dst = append(dst, byte(m))
	return storage.AppendRow(dst, row)
}

// QueryPost is what the querier deposits in the SSI's querybox (step 1 of
// Fig. 2): the query encrypted with k1, the signed credential, and the
// SIZE clause in cleartext so the SSI can evaluate it.
//
// Targets selects the personal queryboxes of specific TDSs ("get the
// monthly energy consumption of consumer C", Section 3.1). Empty Targets
// means the global querybox: the query is directed to the crowd.
// Targeting is necessarily cleartext — the SSI routes the query — so a
// personal query reveals who is being asked, but never what they answer.
type QueryPost struct {
	ID         string
	Kind       Kind
	Params     Params
	EncQuery   []byte // nDet_Enc_k1(SQL text)
	Credential accessctl.Credential
	Size       sqlparse.SizeClause
	Targets    []string // TDS IDs; empty = global querybox
	PostedAt   time.Time
	// Epoch is the 1-based fleet key epoch the query was posted under; the
	// SSI rejects deposits sealed under a different epoch as stale
	// (replays across key rotations).
	Epoch int

	// aad caches the AAD bytes: every encrypt/decrypt of every tuple
	// rebinds to the query, so the hot paths would otherwise allocate the
	// same string once per tuple per TDS.
	aad atomic.Pointer[[]byte]
}

// TargetedTo reports whether the post concerns the given TDS: global
// queries concern everyone; personal queries only their targets.
func (q *QueryPost) TargetedTo(tdsID string) bool {
	if len(q.Targets) == 0 {
		return true
	}
	for _, t := range q.Targets {
		if t == tdsID {
			return true
		}
	}
	return false
}

// AAD returns the additional authenticated data binding ciphertexts to
// this query, preventing cross-query replay of stored tuples. The bytes
// are computed once and shared; callers must not mutate them.
func (q *QueryPost) AAD() []byte {
	if a := q.aad.Load(); a != nil {
		return *a
	}
	a := []byte("query/" + q.ID)
	q.aad.Store(&a)
	return a
}

// NewQueryPost encrypts the query text under k1 and assembles the post.
func NewQueryPost(id string, kind Kind, params Params, sql string,
	k1 *tdscrypto.Suite, cred accessctl.Credential, size sqlparse.SizeClause) (*QueryPost, error) {
	post := &QueryPost{ID: id, Kind: kind, Params: params, Credential: cred, Size: size}
	enc, err := k1.NDetEncrypt([]byte(sql), post.AAD())
	if err != nil {
		return nil, fmt.Errorf("protocol: encrypt query: %w", err)
	}
	post.EncQuery = enc
	return post, nil
}

// OpenQuery decrypts and parses the posted query (step 3 of Fig. 2). Only a
// holder of the posting epoch's k1 gets past the decryption. Nothing is kept:
// a fleet opens a post once per key material (tds.PlanCache), a querier once.
func (q *QueryPost) OpenQuery(k1 *tdscrypto.Suite) (*sqlparse.SelectStmt, error) {
	sql, err := k1.Decrypt(q.EncQuery, q.AAD())
	if err != nil {
		return nil, fmt.Errorf("protocol: decrypt query: %w", err)
	}
	stmt, err := sqlparse.Parse(string(sql))
	if err != nil {
		return nil, fmt.Errorf("protocol: parse query: %w", err)
	}
	return stmt, nil
}
