package tdscrypto

import (
	"crypto/rand"
	"sync"
)

// arenaBlockSize is the slab granularity of an Arena. 64 KiB keeps each
// block below the large-object threshold while amortizing hundreds of
// ciphertext allocations into one malloc.
const arenaBlockSize = 64 << 10

// spareBlocks holds released blocks, zeroed; the GC empties it.
var spareBlocks = sync.Pool{New: func() any { return new([arenaBlockSize]byte) }}

// Arena is a bump allocator for the small byte slices a collection worker
// produces in bulk: ciphertexts and deposit payloads. Alloc carves
// zero-length slices with exact capacity out of append-only blocks, so a
// walk's worth of per-tuple allocations collapses into a handful of block
// mallocs. An Arena is not safe for concurrent use; collection gives each
// worker slot its own.
//
// What an arena carves lives as long as the run that carved it: the SSI
// keeps deposit ciphertexts until it drops the query, a phase device's
// fold outputs feed its later steps. Once the engine's own SSI has dropped
// the query, the engine calls Release, which zeroes the blocks (a stale
// read fails GCM, never reads another query's bytes) and hands them to the
// next block any arena cuts. An arena keeps its blocks only from its first
// Release: one nobody releases holds just the block it is cutting.
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
	blocks   []*[arenaBlockSize]byte // the one being cut last; once released, all since
	off      int                     // bytes of the last block cut
	released bool                    // Release was called: blocks keeps every block
	unread   int                     // reservoir bytes not handed out yet: the tail of nonces
	nonces   [64 * nonceSize]byte
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
	if len(a.blocks) == 0 || arenaBlockSize-a.off < capacity {
		if !a.released {
			a.blocks = a.blocks[:0]
		}
		a.blocks, a.off = append(a.blocks, spareBlocks.Get().(*[arenaBlockSize]byte)), 0
	}
	b, off := a.blocks[len(a.blocks)-1], a.off
	a.off += capacity
	return b[off : off : off+capacity]
}

// Release zeroes the blocks cut since the last Release (at the first, only
// the one being cut) and hands them on; nothing carved from them may be read.
func (a *Arena) Release() {
	for _, b := range a.blocks {
		clear(b[:])
		spareBlocks.Put(b)
	}
	clear(a.blocks) // pins no block the pool may drop
	a.blocks, a.released = a.blocks[:0], true
}
