package tdscrypto

import (
	"bytes"
	"testing"
)

// FuzzDecrypt feeds arbitrary bytes to the AEAD opener: it must never
// panic, and anything it accepts must be genuinely authenticated. The
// oracle is self-contained — Decrypt is stable on repeat, and flipping
// any single byte of an accepted ciphertext or its AAD must be rejected
// (forgery resistance at the API level). Comparing against a pinned
// "genuine" ciphertext would be wrong here: Ndet_Enc draws a random
// nonce, so each fuzz worker process would pin a different value and
// flag another worker's perfectly valid seed as a forgery.
func FuzzDecrypt(f *testing.F) {
	suite := mustSuite(DeriveKey(Key{}, "fuzz"))
	genuine, _ := suite.NDetEncrypt([]byte("payload"), []byte("aad"))
	f.Add(genuine, []byte("aad"))
	f.Add(genuine, []byte("other"))
	f.Add([]byte{}, []byte{})
	f.Add(make([]byte, 12), []byte{})
	f.Add(make([]byte, 64), []byte("aad"))
	f.Fuzz(func(t *testing.T, ct, aad []byte) {
		pt, err := suite.Decrypt(ct, aad)
		if err != nil {
			return
		}
		again, err := suite.Decrypt(ct, aad)
		if err != nil || !bytes.Equal(again, pt) {
			t.Fatalf("Decrypt not stable on accepted input: %v", err)
		}
		for i := range ct {
			mut := append([]byte(nil), ct...)
			mut[i] ^= 0x01
			if _, err := suite.Decrypt(mut, aad); err == nil {
				t.Fatalf("bit-flipped ciphertext (byte %d) accepted", i)
			}
		}
		for i := range aad {
			mut := append([]byte(nil), aad...)
			mut[i] ^= 0x01
			if _, err := suite.Decrypt(ct, mut); err == nil {
				t.Fatalf("accepted under bit-flipped AAD (byte %d)", i)
			}
		}
	})
}

// FuzzDetEncryptRoundTrip checks Det_Enc determinism and round-tripping on
// arbitrary messages.
func FuzzDetEncryptRoundTrip(f *testing.F) {
	suite := mustSuite(DeriveKey(Key{}, "fuzz2"))
	f.Add([]byte("hello"), []byte("q1"))
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, msg, aad []byte) {
		a, err := suite.DetEncrypt(msg, aad)
		if err != nil {
			t.Fatal(err)
		}
		b, err := suite.DetEncrypt(msg, aad)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatal("Det_Enc not deterministic")
		}
		pt, err := suite.Decrypt(a, aad)
		if err != nil || !bytes.Equal(pt, msg) {
			t.Fatalf("round trip: %v", err)
		}
	})
}
