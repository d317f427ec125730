package tdscrypto

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// TestRingAtMatchesStoredRings is the golden equivalence behind the packed
// fleet: a ring derived on demand for any epoch must be bit-identical to
// the ring a device stored when it enrolled at that epoch, before and
// after rotations.
func TestRingAtMatchesStoredRings(t *testing.T) {
	a := NewKeyAuthority(DeriveKey(Key{}, "golden-master"))
	var stored []KeyRing
	for e := 0; e < 5; e++ {
		stored = append(stored, a.Ring())
		a.Rotate()
	}
	for e, want := range stored {
		got := a.RingAt(uint64(e))
		if got != want {
			t.Errorf("epoch %d: derived ring differs from stored ring", e)
		}
	}
	// Rotation must never rewrite history: after 5 rotations epoch 0 still
	// derives the original ring.
	if a.RingAt(0) != stored[0] {
		t.Error("epoch 0 ring changed after rotations")
	}
}

// TestRingAtGoldenVectors pins the derivation to fixed bytes so a future
// refactor of DeriveKey or the epoch labels cannot silently re-key a
// deployed fleet.
func TestRingAtGoldenVectors(t *testing.T) {
	a := NewKeyAuthority(DeriveKey(Key{}, "golden-master"))
	golden := []struct{ k1, k2 string }{
		{"8d44cb686ed85ec57c53d99d974120021b37a32b2bbfd660a4a3df2cbd4a7b04",
			"d4ecdd4557fbfeef9b6c32b881948c6afa91efe64e161262eefbcbfa66e57c53"},
		{"0d3a017c315b8a250d14eca950fd5ef02d4031ada05a37e149663c3d061bacbe",
			"88ead8fc3a0436a74c644263ecdd928efcc50c3439ceb0be03045a599bcddb51"},
		{"db91c076526ca645ee62cb763455f8c0b8c7e92d369e8bb37ed45415694bdfa4",
			"225527eaa59caf76492fcc89782c047c0d33a6aaac6eaa000218c4c02a4b6173"},
	}
	for e, g := range golden {
		r := a.RingAt(uint64(e))
		if got := hex.EncodeToString(r.K1[:]); got != g.k1 {
			t.Errorf("epoch %d K1 = %s, want %s", e, got, g.k1)
		}
		if got := hex.EncodeToString(r.K2[:]); got != g.k2 {
			t.Errorf("epoch %d K2 = %s, want %s", e, got, g.k2)
		}
	}
}

// TestFoldStreamMatchesFold: the incremental fold must be byte-identical
// to the slice-based one for any child sequence, including empty folds
// and empty children.
func TestFoldStreamMatchesFold(t *testing.T) {
	c := NewCommitter(DeriveKey(Key{}, "fold"))
	cases := [][][]byte{
		nil,
		{[]byte{}},
		{[]byte("a")},
		{[]byte("a"), []byte("bc"), nil, []byte("defg")},
	}
	for i, children := range cases {
		want := c.Fold("collection-root", children...)
		f := c.StartFold("collection-root")
		for _, ch := range children {
			f.Add(ch)
		}
		if got := f.Sum(); !bytes.Equal(got, want) {
			t.Errorf("case %d: stream fold %x != fold %x", i, got, want)
		}
	}
	// Discard must recycle cleanly and leave later folds unaffected.
	f := c.StartFold("collection-root")
	f.Add([]byte("poison"))
	f.Discard()
	f.Discard() // idempotent
	want := c.Fold("collection-root", []byte("a"))
	f = c.StartFold("collection-root")
	f.Add([]byte("a"))
	if got := f.Sum(); !bytes.Equal(got, want) {
		t.Errorf("fold after discard %x != %x", got, want)
	}
}

// TestArenaEncrypt: arena-backed nDet_Enc must produce the same
// decryptable plaintext as the plain allocating path, for nil arenas,
// small slots and oversized fallbacks, and Release must zero its blocks.
func TestArenaEncrypt(t *testing.T) {
	s := mustSuite(DeriveKey(Key{}, "arena"))
	aad := []byte("header")
	plaintexts := [][]byte{
		[]byte("short"),
		bytes.Repeat([]byte("x"), 1000),
		bytes.Repeat([]byte("y"), 100000), // over the slab cap -> fallback
	}
	arenas := []*Arena{nil, new(Arena)}
	for _, a := range arenas {
		for i, pt := range plaintexts {
			ndA, err := s.NDetEncryptArena(pt, aad, a)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Decrypt(ndA, aad)
			if err != nil {
				t.Fatalf("arena=%v pt %d: decrypt: %v", a != nil, i, err)
			}
			if !bytes.Equal(got, pt) {
				t.Errorf("arena=%v pt %d: round trip mismatch", a != nil, i)
			}
		}
	}
	// Adjacent slots must not alias: a later encryption cannot clobber an
	// earlier ciphertext carved from the same block.
	a := new(Arena)
	first, err := s.NDetEncryptArena([]byte("first"), aad, a)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]byte(nil), first...)
	for i := 0; i < 100; i++ {
		if _, err := s.NDetEncryptArena(bytes.Repeat([]byte("z"), 64), aad, a); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(first, snapshot) {
		t.Error("arena slot overwritten by later allocations")
	}
	// Release zeroes what it hands on, so a stale read cannot open.
	if a.Release(); !bytes.Equal(first, make([]byte, len(first))) {
		t.Error("a released slot keeps its ciphertext")
	}
}

// TestArenaNonces: batching the nonce reads changes nothing a nonce must
// be. Ten thousand ciphertexts over many refills carry pairwise distinct
// nonces, two arenas share none, and a nil arena still encrypts. And no
// reservoir byte is handed out twice: every draw is the next bytes of the
// current fill, a fill is always a fresh read, and a draw the reservoir is
// too short for discards what is left rather than splicing it onto the
// refill.
func TestArenaNonces(t *testing.T) {
	s := mustSuite(DeriveKey(Key{}, "k2"))
	a, b := new(Arena), new(Arena)
	seen := make(map[string]string)
	note := func(ct []byte, who string) {
		n := string(ct[:nonceSize])
		if prev, dup := seen[n]; dup {
			t.Fatalf("nonce %x drawn by %s was already drawn by %s", n, who, prev)
		}
		seen[n] = who
	}
	var fill [len(a.nonces)]byte
	for i := 0; i < 10000; i++ {
		refill := a.unread < nonceSize
		ct, err := s.NDetEncryptArena([]byte("tuple"), nil, a)
		if err != nil {
			t.Fatal(err)
		}
		if refill {
			if fill == a.nonces {
				t.Fatalf("draw %d: the refill left the reservoir as it was", i)
			}
			fill = a.nonces
		}
		// The nonce is the fill's next unread bytes, and the fill is untouched.
		at := len(a.nonces) - a.unread - nonceSize
		if !bytes.Equal(ct[:nonceSize], fill[at:at+nonceSize]) || fill != a.nonces {
			t.Fatalf("draw %d: nonce %x is not bytes %d… of its fill", i, ct[:nonceSize], at)
		}
		note(ct, "a")
		if i%100 == 0 {
			for _, other := range []*Arena{b, nil} {
				ct, err := s.NDetEncryptArena([]byte("tuple"), nil, other)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Decrypt(ct, nil); err != nil {
					t.Fatal(err)
				}
				note(ct, "another arena")
			}
		}
	}
	if fills := 10000 * nonceSize / len(a.nonces); fills < 100 {
		t.Fatalf("only %d refills exercised", fills)
	}
	// A leftover shorter than the draw is dropped whole.
	c := new(Arena)
	var first, second [40]byte
	if err := c.nonce(first[:]); err != nil {
		t.Fatal(err)
	}
	c.unread = 7
	tail := append([]byte(nil), c.nonces[len(c.nonces)-7:]...)
	if err := c.nonce(second[:]); err != nil {
		t.Fatal(err)
	}
	if c.unread != len(c.nonces)-40 || !bytes.Equal(second[:], c.nonces[:40]) || bytes.Contains(second[:], tail) {
		t.Errorf("a 40-byte draw over a 7-byte leftover: %d unread, want a whole fresh fill less 40", c.unread)
	}
}
