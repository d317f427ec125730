package tdscrypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"sync"
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
	states sync.Pool // *foldState, keyed under the commitment key
}

// NewCommitter prepares a committer keyed for the fleet key. Two
// committers built from equal keys produce equal commitments — that is
// what lets a verifier recompute and compare a TDS's leaf commitment.
func NewCommitter(k Key) *Committer {
	key := DeriveKey(k, "commit")
	c := &Committer{}
	c.states.New = func() any { return &foldState{mac: hmac.New(sha256.New, key[:])} }
	return c
}

// foldState is the pooled half of a FoldStream: a keyed MAC and the block
// buffer in front of it. A tuple commits ~94 bytes in six pieces; written
// one by one, the calls through hash.Hash cost as much as the SHA-256
// they feed, so pieces gather in buf and reach the MAC a block at a time.
// The MAC absorbs the same byte sequence either way.
type foldState struct {
	mac hash.Hash
	n   int // bytes of buf not yet written to mac
	buf [512]byte
}

func (st *foldState) flush() {
	st.mac.Write(st.buf[:st.n])
	st.n = 0
}

// write queues p behind what the buffer holds, flushing first when it
// does not fit; a p larger than the whole buffer goes straight to the MAC.
func (st *foldState) write(p []byte) {
	if len(p) > len(st.buf)-st.n {
		st.flush()
		if len(p) > len(st.buf) {
			st.mac.Write(p)
			return
		}
	}
	st.n += copy(st.buf[st.n:], p)
}

// writeString is write for a string, which has no []byte to hand the MAC:
// it goes through the buffer, cut at the buffer's edge.
func (st *foldState) writeString(s string) {
	for {
		n := copy(st.buf[st.n:], s)
		st.n += n
		if s = s[n:]; s == "" {
			return
		}
		st.flush()
	}
}

// frame queues a segment's 8-byte big-endian length (or a counter), in
// place: a local frame would escape through hash.Hash.
func (st *foldState) frame(v uint64) {
	if len(st.buf)-st.n < 8 {
		st.flush()
	}
	binary.BigEndian.PutUint64(st.buf[st.n:], v)
	st.n += 8
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
// concurrent use; call either Sum or Discard once. Only the state behind
// the handle is pooled, so a Discard after either finds st nil and cannot
// touch a state another stream has since taken. StartFold and StartCommit
// inline, so a handle that stays in its caller lives in the caller's frame.
type FoldStream struct {
	c  *Committer
	st *foldState // nil once finished
}

// StartFold begins an incremental fold over the domain.
func (c *Committer) StartFold(domain string) *FoldStream {
	return &FoldStream{c: c, st: c.start(commitFoldPrefix, domain)}
}

// StartCommit begins an incremental leaf commitment over the domain.
func (c *Committer) StartCommit(domain string) *FoldStream {
	return &FoldStream{c: c, st: c.start(commitLeafPrefix, domain)}
}

func (c *Committer) start(prefix []byte, domain string) *foldState {
	st := c.states.Get().(*foldState)
	st.mac.Reset()
	st.n = copy(st.buf[:], prefix)
	st.writeString(domain)
	return st
}

// Add absorbs one child commitment or leaf segment, length-framed exactly
// like Fold and Commit.
func (f *FoldStream) Add(child []byte) {
	f.st.frame(uint64(len(child)))
	f.st.write(child)
}

// AddString is Add([]byte(s)) without the conversion's allocation.
func (f *FoldStream) AddString(s string) {
	f.st.frame(uint64(len(s)))
	f.st.writeString(s)
}

// AddUint64 is Add of v's eight big-endian bytes.
func (f *FoldStream) AddUint64(v uint64) {
	f.st.frame(8)
	f.st.frame(v)
}

// Sum finishes the stream and returns the commitment, equal to
// Fold(domain, children...) or Commit(domain, segments...) over what was
// Added, in order.
func (f *FoldStream) Sum() []byte { return f.SumTo(new([CommitSize]byte)) }

// SumTo is Sum into the caller's array, which may live on its stack.
func (f *FoldStream) SumTo(dst *[CommitSize]byte) []byte {
	st := f.st
	st.flush()
	copy(dst[:], st.mac.Sum(st.buf[:0])) // the flushed buffer is free: no escaping local
	f.Discard()
	return dst[:]
}

// Discard abandons the stream without producing a commitment, recycling
// the underlying state. Used when verification fails mid-stream.
func (f *FoldStream) Discard() {
	if f.st != nil {
		f.c.states.Put(f.st)
		f.st = nil
	}
}

func (c *Committer) sum(prefix []byte, domain string, segments [][]byte) []byte {
	f := FoldStream{c: c, st: c.start(prefix, domain)}
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
