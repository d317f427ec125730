// Package tdscrypto implements the cryptographic toolkit of the querying
// protocols (Section 3.1 of the paper):
//
//   - nDet_Enc: non-deterministic (probabilistic) authenticated encryption.
//     Several encryptions of one message yield different ciphertexts, which
//     defeats frequency-based attacks by the SSI.
//   - Det_Enc: deterministic authenticated encryption. One plaintext always
//     maps to one ciphertext under a key, letting the SSI group tuples of
//     the same group without decrypting them (Noise_based protocols).
//   - BucketHash: a keyed hash h(bucketId) used by ED_Hist; it reveals
//     nothing about the position of the bucket in the domain and is cheaper
//     than Det_Enc for the TDS.
//
// Two symmetric keys circulate (Section 3.1): k1 between querier and TDSs,
// k2 among TDSs for intermediate results. How keys reach TDSs is context
// dependent (burn time, PKI, broadcast encryption); the KeyAuthority here
// stands in for any of those mechanisms.
package tdscrypto

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
)

// KeySize is the symmetric key size in bytes (AES-256).
const KeySize = 32

// Key is a symmetric key. Keys are passed by value and never logged.
type Key [KeySize]byte

// NewRandomKey returns a fresh random key from crypto/rand.
func NewRandomKey() (Key, error) {
	var k Key
	if _, err := rand.Read(k[:]); err != nil {
		return Key{}, fmt.Errorf("tdscrypto: entropy: %w", err)
	}
	return k, nil
}

// MustRandomKey is NewRandomKey for tests and examples.
func MustRandomKey() Key {
	k, err := NewRandomKey()
	if err != nil {
		panic(err)
	}
	return k
}

// DeriveKey derives a sub-key from a master key and a label using
// HMAC-SHA-256 (an HKDF-expand with one block, sufficient for 32-byte
// output). Equal (master, label) pairs always derive the same key, which is
// how a fleet provisioned with one seed at burn time agrees on k1/k2.
func DeriveKey(master Key, label string) Key {
	mac := hmac.New(sha256.New, master[:])
	mac.Write([]byte("tcq/v1/"))
	mac.Write([]byte(label))
	mac.Write([]byte{1})
	var k Key
	copy(k[:], mac.Sum(nil))
	return k
}

// KeyRing bundles the two protocol keys held by a TDS.
type KeyRing struct {
	// K1 protects querier <-> TDS traffic: the query itself and final
	// result tuples.
	K1 Key
	// K2 protects TDS <-> TDS traffic relayed through the SSI:
	// intermediate (partial aggregation) results.
	K2 Key
}

// KeyAuthority models whatever provisioning scheme the deployment uses
// (keys installed at burn time, PKI, broadcast encryption). It issues the
// same KeyRing to every enrolled TDS and K1 to authorized queriers.
type KeyAuthority struct {
	master Key
	epoch  uint64
}

// NewKeyAuthority creates an authority from a master secret.
func NewKeyAuthority(master Key) *KeyAuthority {
	return &KeyAuthority{master: master}
}

// Ring returns the key ring for the current epoch.
func (a *KeyAuthority) Ring() KeyRing { return a.RingAt(a.epoch) }

// RingAt derives the key ring of an arbitrary epoch. Derivation is pure in
// (master, epoch), which is what lets a fleet store only each device's
// enrollment epoch and reconstruct its full ring on demand — a device
// enrolled at epoch n holds exactly RingAt(n), bit-identical to the ring
// Ring() returned when n was current, before and after any Rotate().
func (a *KeyAuthority) RingAt(epoch uint64) KeyRing {
	return KeyRing{
		K1: DeriveKey(a.master, fmt.Sprintf("k1/%d", epoch)),
		K2: DeriveKey(a.master, fmt.Sprintf("k2/%d", epoch)),
	}
}

// Rotate advances the key epoch; the paper notes keys may change over time.
// Devices receive the new ring through the rotation's broadcast.
func (a *KeyAuthority) Rotate() { a.epoch++ }

// Epoch returns the current key epoch.
func (a *KeyAuthority) Epoch() uint64 { return a.epoch }
