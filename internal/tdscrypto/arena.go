package tdscrypto

import "crypto/rand"

// arenaBlockSize is the slab granularity of an Arena. 64 KiB keeps each
// block below the large-object threshold while amortizing hundreds of
// ciphertext allocations into one malloc.
const arenaBlockSize = 64 << 10

// Arena is a bump allocator for the small byte slices a collection worker
// produces in bulk: ciphertexts and deposit payloads. Alloc carves
// zero-length slices with exact capacity out of append-only blocks, so a
// walk's worth of per-tuple allocations collapses into a handful of block
// mallocs. There is no Reset — allocated slices are retained by the SSI
// for the lifetime of the query, so blocks simply stay reachable through
// the tuples that live in them. An Arena is not safe for concurrent use;
// collection gives each worker slot its own.
//
// It also carries nDet_Enc's nonce reservoir: one crypto/rand read fills
// it and each nonce is cut from it once, in order. Same source, no byte
// used twice: the nonces are as unique as ones read singly, which is all a
// (public) GCM nonce has to be. Copies of a used Arena would cut equal
// nonces: do not copy one.
//
// The zero value is ready to use, and every arena-aware function accepts a
// nil *Arena, falling back to plain make and a direct read.
type Arena struct {
	block  []byte
	unread int // reservoir bytes not handed out yet: the tail of nonces
	nonces [64 * nonceSize]byte
}

// nonce fills dst with random bytes nobody was handed before. A reservoir
// too short for dst is refilled whole, what was left being discarded.
func (a *Arena) nonce(dst []byte) error {
	if a == nil {
		_, err := rand.Read(dst)
		return err
	}
	if a.unread < len(dst) {
		if _, err := rand.Read(a.nonces[:]); err != nil {
			return err
		}
		a.unread = len(a.nonces)
	}
	copy(dst, a.nonces[len(a.nonces)-a.unread:])
	a.unread -= len(dst)
	return nil
}

// Alloc returns a zero-length slice with exactly the requested capacity.
// Appending up to that capacity stays inside the reserved region and can
// never bleed into a neighboring allocation. Requests larger than a
// quarter block fall through to a dedicated allocation.
func (a *Arena) Alloc(capacity int) []byte {
	if a == nil || capacity > arenaBlockSize/4 {
		return make([]byte, 0, capacity)
	}
	if cap(a.block)-len(a.block) < capacity {
		a.block = make([]byte, 0, arenaBlockSize)
	}
	off := len(a.block)
	a.block = a.block[:off+capacity]
	return a.block[off : off : off+capacity]
}
