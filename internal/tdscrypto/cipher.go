package tdscrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"hash"
	"sync"
)

// nonceSize is the AES-GCM nonce size in bytes.
const nonceSize = 12

// Overhead is the ciphertext expansion of both encryption modes:
// nonce (12) + GCM tag (16).
const Overhead = nonceSize + 16

// sepZero is the domain separator written between MAC inputs. A package
// variable keeps the one-byte slice off the per-call heap.
var sepZero = []byte{0}

// MACPool recycles HMAC-SHA256 states keyed by one key. hmac.New builds
// four hash states per call, which dominates the allocation profile of the
// deterministic-encryption and digest hot paths; Reset-and-reuse amortizes
// that to zero. Safe for concurrent use — each Get hands out an exclusive
// state.
type MACPool struct {
	pool sync.Pool
}

// NewMACPool prepares a pool of HMAC-SHA256 states for the key.
func NewMACPool(k Key) *MACPool {
	p := &MACPool{}
	p.pool.New = func() any { return hmac.New(sha256.New, k[:]) }
	return p
}

// Get returns a reset HMAC state. Return it with Put when done.
func (p *MACPool) Get() hash.Hash {
	mac := p.pool.Get().(hash.Hash)
	mac.Reset()
	return mac
}

// Put recycles a state obtained from Get.
func (p *MACPool) Put(mac hash.Hash) { p.pool.Put(mac) }

// Suite is a ready-to-use cipher for one key. Constructing the AEAD once
// per key mirrors the session-key setup a real crypto co-processor performs
// and keeps the per-tuple cost low.
type Suite struct {
	aead   cipher.AEAD
	detKey Key      // independent sub-key for synthetic nonces
	detMAC *MACPool // recycled HMAC states for DetEncrypt
}

// NewSuite prepares a cipher suite for the key.
func NewSuite(k Key) (*Suite, error) {
	block, err := aes.NewCipher(k[:])
	if err != nil {
		return nil, fmt.Errorf("tdscrypto: aes: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("tdscrypto: gcm: %w", err)
	}
	detKey := DeriveKey(k, "det-nonce")
	return &Suite{aead: aead, detKey: detKey, detMAC: NewMACPool(detKey)}, nil
}

// NDetEncrypt encrypts plaintext non-deterministically (nDet_Enc): a random
// nonce makes every ciphertext unique, so the SSI can neither detect equal
// plaintexts nor mount frequency attacks. aad is authenticated but not
// encrypted (message headers).
func (s *Suite) NDetEncrypt(plaintext, aad []byte) ([]byte, error) {
	return s.NDetEncryptArena(plaintext, aad, nil)
}

// NDetEncryptArena is NDetEncrypt with the output carved from the arena
// instead of its own allocation. The arena slot has exact capacity for
// nonce + ciphertext + tag, so Seal appends in place. A nil arena falls
// back to NDetEncrypt. The nonce comes from the arena's reservoir (a nil
// arena reads it directly).
func (s *Suite) NDetEncryptArena(plaintext, aad []byte, a *Arena) ([]byte, error) {
	out := a.Alloc(nonceSize + len(plaintext) + s.aead.Overhead())
	out = out[:nonceSize]
	if err := a.nonce(out); err != nil {
		return nil, fmt.Errorf("tdscrypto: nonce: %w", err)
	}
	return s.aead.Seal(out, out[:nonceSize], plaintext, aad), nil
}

// DetEncrypt encrypts plaintext deterministically (Det_Enc): the nonce is a
// MAC of the plaintext (SIV-style), so equal plaintexts produce equal
// ciphertexts under the same key. The SSI uses that equality to assemble
// tuples of one group into one partition — and it is exactly what the
// frequency attack of Section 5 exploits, hence the noise protocols.
func (s *Suite) DetEncrypt(plaintext, aad []byte) ([]byte, error) {
	mac := s.detMAC.Get()
	mac.Write(aad)
	mac.Write(sepZero)
	mac.Write(plaintext)
	var sum [sha256.Size]byte
	synthetic := mac.Sum(sum[:0])[:nonceSize]
	out := append(make([]byte, 0, nonceSize+len(plaintext)+s.aead.Overhead()), synthetic...)
	s.detMAC.Put(mac)
	return s.aead.Seal(out, out[:nonceSize], plaintext, aad), nil
}

// Decrypt opens a ciphertext produced by either NDetEncrypt or DetEncrypt
// with the same key and aad.
func (s *Suite) Decrypt(ciphertext, aad []byte) ([]byte, error) {
	return s.DecryptTo(nil, ciphertext, aad)
}

// DecryptTo is Decrypt with the plaintext appended to dst, whose spare
// capacity is used when it suffices, so a loop over many ciphertexts can
// reuse one buffer. Nothing is appended when authentication fails.
func (s *Suite) DecryptTo(dst, ciphertext, aad []byte) ([]byte, error) {
	if len(ciphertext) < nonceSize {
		return nil, fmt.Errorf("tdscrypto: ciphertext shorter than nonce")
	}
	pt, err := s.aead.Open(dst, ciphertext[:nonceSize], ciphertext[nonceSize:], aad)
	if err != nil {
		return nil, fmt.Errorf("tdscrypto: open: %w", err)
	}
	return pt, nil
}

// bucketPrefix is the domain separator of the bucket hash.
var bucketPrefix = []byte("bucket/")

// BucketHasher computes the keyed hash h(bucketId) used by ED_Hist. It is
// deterministic per key, collision-resistant, and reveals nothing about the
// bucket's position in the attribute domain. The 16-byte truncation keeps
// wire tuples small (st in the cost model). The HMAC states are recycled:
// a TDS tagging one collection tuple per fleet member pays the HMAC key
// schedule once instead of per tuple. Safe for concurrent use.
type BucketHasher struct {
	macs *MACPool
}

// NewBucketHasher prepares a hasher for the key.
func NewBucketHasher(k Key) *BucketHasher {
	return &BucketHasher{macs: NewMACPool(k)}
}

// Sum returns the 16-byte keyed bucket hash of bucketID.
func (h *BucketHasher) Sum(bucketID []byte) []byte {
	mac := h.macs.Get()
	mac.Write(bucketPrefix)
	mac.Write(bucketID)
	var sum [sha256.Size]byte
	out := make([]byte, 16)
	copy(out, mac.Sum(sum[:0]))
	h.macs.Put(mac)
	return out
}
