package tdscrypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"testing"
	"testing/quick"
)

// mustSuite is NewSuite for the keys these tests build, which never fail.
func mustSuite(k Key) *Suite {
	s, err := NewSuite(k)
	if err != nil {
		panic(err)
	}
	return s
}

func TestNDetEncryptRoundTrip(t *testing.T) {
	s := mustSuite(MustRandomKey())
	msgs := [][]byte{nil, {}, []byte("x"), []byte("hello world"), bytes.Repeat([]byte{7}, 4096)}
	for _, m := range msgs {
		ct, err := s.NDetEncrypt(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if pt, err := s.Decrypt(ct, nil); err != nil || !bytes.Equal(pt, m) {
			t.Errorf("round trip lost data: %q vs %q (%v)", pt, m, err)
		}
	}
}

func TestNDetEncryptIsProbabilistic(t *testing.T) {
	s := mustSuite(MustRandomKey())
	m := []byte("same message")
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		ct, err := s.NDetEncrypt(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if seen[string(ct)] {
			t.Fatal("nDet_Enc repeated a ciphertext — frequency attack possible")
		}
		seen[string(ct)] = true
	}
}

func TestDetEncryptIsDeterministic(t *testing.T) {
	s := mustSuite(MustRandomKey())
	m := []byte("Paris")
	a, errA := s.DetEncrypt(m, nil)
	b, errB := s.DetEncrypt(m, nil)
	c, errC := s.DetEncrypt([]byte("Lyon"), nil)
	if err := errors.Join(errA, errB, errC); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("Det_Enc must map equal plaintexts to equal ciphertexts")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different plaintexts collided")
	}
	if pt, err := s.Decrypt(a, nil); err != nil || !bytes.Equal(pt, m) {
		t.Fatalf("decrypt: %q, %v", pt, err)
	}
}

func TestDetEncryptDependsOnAAD(t *testing.T) {
	s := mustSuite(MustRandomKey())
	a, _ := s.DetEncrypt([]byte("m"), []byte("q1"))
	b, _ := s.DetEncrypt([]byte("m"), []byte("q2"))
	if bytes.Equal(a, b) {
		t.Fatal("aad must domain-separate deterministic ciphertexts")
	}
}

func TestDecryptRejectsTampering(t *testing.T) {
	s := mustSuite(MustRandomKey())
	ct, _ := s.NDetEncrypt([]byte("secret"), []byte("hdr"))
	for i := range ct {
		bad := append([]byte(nil), ct...)
		bad[i] ^= 0x01
		if _, err := s.Decrypt(bad, []byte("hdr")); err == nil {
			t.Fatalf("bit flip at %d accepted", i)
		}
	}
	if _, err := s.Decrypt(ct, []byte("other")); err == nil {
		t.Fatal("wrong aad accepted")
	}
	if _, err := s.Decrypt(ct[:5], nil); err == nil {
		t.Fatal("truncated ciphertext accepted")
	}
}

func TestDecryptWrongKeyFails(t *testing.T) {
	s1 := mustSuite(MustRandomKey())
	s2 := mustSuite(MustRandomKey())
	ct, _ := s1.NDetEncrypt([]byte("secret"), nil)
	if _, err := s2.Decrypt(ct, nil); err == nil {
		t.Fatal("ciphertext opened under wrong key")
	}
}

func TestOverheadConstant(t *testing.T) {
	s := mustSuite(MustRandomKey())
	for _, n := range []int{0, 1, 16, 100, 4096} {
		ct, _ := s.NDetEncrypt(make([]byte, n), nil)
		if len(ct) != n+Overhead {
			t.Errorf("len(ct)=%d for %d-byte plaintext, want %d", len(ct), n, n+Overhead)
		}
		ct, _ = s.DetEncrypt(make([]byte, n), nil)
		if len(ct) != n+Overhead {
			t.Errorf("det len(ct)=%d for %d-byte plaintext", len(ct), n)
		}
	}
}

func TestDeriveKeyStableAndDistinct(t *testing.T) {
	m := MustRandomKey()
	a := DeriveKey(m, "k1/0")
	b := DeriveKey(m, "k1/0")
	c := DeriveKey(m, "k2/0")
	if a != b {
		t.Fatal("derivation must be deterministic")
	}
	if a == c {
		t.Fatal("distinct labels must derive distinct keys")
	}
	if a == m {
		t.Fatal("derived key equals master")
	}
}

func TestKeyAuthorityRotation(t *testing.T) {
	auth := NewKeyAuthority(MustRandomKey())
	r0 := auth.Ring()
	if r0.K1 == r0.K2 {
		t.Fatal("k1 and k2 must differ")
	}
	auth.Rotate()
	r1 := auth.Ring()
	if auth.Epoch() != 1 {
		t.Fatalf("epoch = %d", auth.Epoch())
	}
	if r0.K1 == r1.K1 || r0.K2 == r1.K2 {
		t.Fatal("rotation must change keys")
	}
	// Same authority state reproduces the same ring (fleet agreement).
	if r1 != auth.Ring() {
		t.Fatal("ring must be stable within an epoch")
	}
}

func TestBucketHash(t *testing.T) {
	k := MustRandomKey()
	h := NewBucketHasher(k)
	a, b, c := h.Sum([]byte("b0")), h.Sum([]byte("b0")), h.Sum([]byte("b1"))
	if !bytes.Equal(a, b) {
		t.Fatal("bucket hash must be deterministic")
	}
	if bytes.Equal(a, c) {
		t.Fatal("distinct buckets must hash differently")
	}
	mac := hmac.New(sha256.New, k[:])
	mac.Write([]byte("bucket/b0"))
	if want := mac.Sum(nil)[:16]; !bytes.Equal(a, want) {
		t.Fatalf("h(b0) = %x, want HMAC-SHA256(k2, bucket/b0)[:16] = %x", a, want)
	}
	if bytes.Equal(a, NewBucketHasher(MustRandomKey()).Sum([]byte("b0"))) {
		t.Fatal("hash must be keyed")
	}
}

// Property: every message round trips under both modes with arbitrary aad.
func TestRoundTripQuick(t *testing.T) {
	s := mustSuite(MustRandomKey())
	f := func(msg, aad []byte) bool {
		nct, err := s.NDetEncrypt(msg, aad)
		if err != nil {
			return false
		}
		npt, err := s.Decrypt(nct, aad)
		if err != nil || !bytes.Equal(npt, msg) {
			return false
		}
		dct, err := s.DetEncrypt(msg, aad)
		if err != nil {
			return false
		}
		dpt, err := s.Decrypt(dct, aad)
		return err == nil && bytes.Equal(dpt, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: Det_Enc is a function — equal inputs yield equal ciphertexts.
func TestDetFunctionalQuick(t *testing.T) {
	s := mustSuite(MustRandomKey())
	f := func(msg []byte) bool {
		a, err1 := s.DetEncrypt(msg, nil)
		b, err2 := s.DetEncrypt(msg, nil)
		return err1 == nil && err2 == nil && bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestDecryptToReusesTheBuffer: a loop over many ciphertexts opens them
// all into one buffer. DecryptTo appends after what dst holds, allocates
// nothing while the capacity lasts, and hands nothing back — not even a
// partial plaintext — when authentication fails.
func TestDecryptToReusesTheBuffer(t *testing.T) {
	s := mustSuite(MustRandomKey())
	aad := []byte("query/q-1")
	var cts [][]byte
	for _, m := range []string{"", "x", "hello world", "a longer plaintext, past one AES block"} {
		ct, err := s.NDetEncrypt([]byte(m), aad)
		if err != nil {
			t.Fatal(err)
		}
		cts = append(cts, ct)
		pt, err := s.DecryptTo([]byte("kept|"), ct, aad)
		if err != nil || string(pt) != "kept|"+m {
			t.Errorf("DecryptTo(%q) = %q, %v", m, pt, err)
		}
	}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(50, func() {
		for _, ct := range cts {
			var err error
			if buf, err = s.DecryptTo(buf[:0], ct, aad); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("DecryptTo into a buffer with room allocates %v times", n)
	}
	bad := append([]byte(nil), cts[2]...)
	bad[len(bad)-1] ^= 1
	if pt, err := s.DecryptTo(buf[:0], bad, aad); err == nil || pt != nil {
		t.Errorf("tampered ciphertext opened: %q, %v", pt, err)
	}
	if pt, err := s.DecryptTo(buf[:0], cts[2], []byte("query/q-2")); err == nil || pt != nil {
		t.Errorf("ciphertext opened under another query's AAD: %q, %v", pt, err)
	}
	if _, err := s.DecryptTo(nil, []byte("short"), aad); err == nil {
		t.Error("ciphertext shorter than a nonce must fail")
	}
}
