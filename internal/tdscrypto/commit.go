package tdscrypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"hash"
)

// CommitSize is the byte length of every commitment this package emits.
// 16 bytes (128-bit HMAC truncation) matches the audit digests and bucket
// hashes: collision resistance far beyond the fleet sizes simulated here,
// at minimal wire cost.
const CommitSize = 16

// Committer computes k2-keyed integrity commitments: the MACs a TDS seals
// over its deposit and the Merkle-style folds that bind every phase's
// partitions into one verifiable digest. The SSI never holds k2, so it can
// neither forge a commitment over tuples it dropped, duplicated or
// replayed, nor verify one — commitments are opaque bytes to it, exactly
// like the ciphertexts they protect.
//
// Commit and Fold are domain separated from each other and from every
// other k2 MAC in the system (audit digests, bucket hashes, Det_Enc
// nonces) by key derivation: the committer runs under DeriveKey(k2,
// "commit"), so no commitment can be replayed as any other MAC. Safe for
// concurrent use.
type Committer struct {
	macs *MACPool
}

// NewCommitter prepares a committer keyed for the fleet key. Two
// committers built from equal keys produce equal commitments — that is
// what lets a verifier recompute and compare a TDS's leaf commitment.
func NewCommitter(k Key) *Committer {
	return &Committer{macs: NewMACPool(DeriveKey(k, "commit"))}
}

// Domain separators of the two commitment shapes.
var (
	commitLeafPrefix = []byte("commit/leaf/")
	commitFoldPrefix = []byte("commit/fold/")
)

// Commit MACs a sequence of byte segments under the commitment key, with
// length framing so segment boundaries cannot be shifted without
// detection: Commit("a", "bc") never equals Commit("ab", "c"). domain
// names what is being committed ("deposit", a phase name) and separates
// unrelated commitment uses from one another.
func (c *Committer) Commit(domain string, segments ...[]byte) []byte {
	return c.sum(commitLeafPrefix, domain, segments)
}

// Fold combines child commitments into one parent commitment — the
// Merkle-style reduction that turns per-deposit leaves into a collection
// root and per-partition commitments into a phase commitment. Children
// are framed like Commit segments, so a fold over n children can never
// collide with a fold over their concatenation.
func (c *Committer) Fold(domain string, children ...[]byte) []byte {
	return c.sum(commitFoldPrefix, domain, children)
}

// FoldStream is an incremental Fold or Commit: children (segments) are
// absorbed one at a time instead of being gathered into a slice first, so
// a verifier can fold a million deposit leaves into one collection root
// without ever holding them together, and a leaf over a deposit's tuples
// never builds the segment list. StartFold/Add/Sum over the same children
// produces the byte-identical commitment Fold would, StartCommit/Add/Sum
// the one Commit would — the MAC absorbs the exact same prefix, domain
// and length-framed sequence. A FoldStream is single use and not safe for
// concurrent use; call either Sum or Discard exactly once.
type FoldStream struct {
	c   *Committer
	mac hash.Hash
	// frame is Add's length prefix: as a local it would escape through
	// the hash.Hash interface, one heap allocation per Add.
	frame [8]byte
}

// StartFold begins an incremental fold over the domain.
func (c *Committer) StartFold(domain string) *FoldStream {
	return c.start(commitFoldPrefix, domain)
}

// StartCommit begins an incremental leaf commitment over the domain.
func (c *Committer) StartCommit(domain string) *FoldStream {
	return c.start(commitLeafPrefix, domain)
}

func (c *Committer) start(prefix []byte, domain string) *FoldStream {
	mac := c.macs.Get()
	mac.Write(prefix)
	mac.Write([]byte(domain))
	return &FoldStream{c: c, mac: mac}
}

// Add absorbs one child commitment or leaf segment, length-framed exactly
// like Fold and Commit.
func (f *FoldStream) Add(child []byte) {
	binary.BigEndian.PutUint64(f.frame[:], uint64(len(child)))
	f.mac.Write(f.frame[:])
	f.mac.Write(child)
}

// Sum finishes the stream and returns the commitment, equal to
// Fold(domain, children...) or Commit(domain, segments...) over what was
// Added, in order.
func (f *FoldStream) Sum() []byte {
	var sum [sha256.Size]byte
	out := make([]byte, CommitSize)
	copy(out, f.mac.Sum(sum[:0]))
	f.c.macs.Put(f.mac)
	f.mac = nil
	return out
}

// Discard abandons the stream without producing a commitment, recycling
// the underlying MAC state. Used when verification fails mid-stream.
func (f *FoldStream) Discard() {
	if f.mac != nil {
		f.c.macs.Put(f.mac)
		f.mac = nil
	}
}

func (c *Committer) sum(prefix []byte, domain string, segments [][]byte) []byte {
	f := c.start(prefix, domain)
	for _, seg := range segments {
		f.Add(seg)
	}
	return f.Sum()
}

// CommitEqual compares two commitments in constant time. Empty or
// differently sized inputs are unequal, never panics.
func CommitEqual(a, b []byte) bool {
	return len(a) == CommitSize && hmac.Equal(a, b)
}
