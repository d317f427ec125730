package tdscrypto

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func newBC(t *testing.T, capacity int) *BroadcastAuthority {
	t.Helper()
	a, err := NewBroadcastAuthority(DeriveKey(Key{}, "bc-test"), capacity)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestBroadcastAllDevices(t *testing.T) {
	a := newBC(t, 8)
	msg, err := a.Broadcast([]byte("ring update"))
	if err != nil {
		t.Fatal(err)
	}
	// No revocations: the cover is the root alone.
	if len(msg.Entries) != 1 || msg.Entries[0].Node != 1 {
		t.Errorf("cover = %v, want just the root", msg.Entries)
	}
	for slot := 0; slot < a.Capacity(); slot++ {
		dk, err := a.DeviceKeys(slot)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := dk.Open(msg)
		if err != nil || !bytes.Equal(pt, []byte("ring update")) {
			t.Errorf("slot %d: %v", slot, err)
		}
	}
}

func TestBroadcastExcludesRevoked(t *testing.T) {
	a := newBC(t, 16)
	keys := make([]DeviceKeySet, a.Capacity())
	for s := range keys {
		dk, err := a.DeviceKeys(s)
		if err != nil {
			t.Fatal(err)
		}
		keys[s] = dk
	}
	for _, s := range []int{3, 7, 11} {
		if err := a.Revoke(s); err != nil {
			t.Fatal(err)
		}
	}
	msg, err := a.Broadcast([]byte("fresh keys"))
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < a.Capacity(); s++ {
		pt, err := keys[s].Open(msg)
		revoked := s == 3 || s == 7 || s == 11
		if revoked && err == nil {
			t.Errorf("revoked slot %d opened the broadcast", s)
		}
		if !revoked && (err != nil || !bytes.Equal(pt, []byte("fresh keys"))) {
			t.Errorf("live slot %d failed: %v", s, err)
		}
	}
}

func TestBroadcastCoverSize(t *testing.T) {
	// NNL complete subtree: r revocations cost at most r·log2(n/r)
	// entries.
	a := newBC(t, 64)
	for _, s := range []int{0, 21, 42, 63} {
		if err := a.Revoke(s); err != nil {
			t.Fatal(err)
		}
	}
	msg, err := a.Broadcast([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	r, n := 4.0, 64.0
	bound := int(r*math.Log2(n/r)) + 1
	if len(msg.Entries) > bound {
		t.Errorf("cover = %d entries, NNL bound %d", len(msg.Entries), bound)
	}
}

func TestBroadcastAllRevoked(t *testing.T) {
	a := newBC(t, 2)
	_ = a.Revoke(0)
	_ = a.Revoke(1)
	if _, err := a.Broadcast([]byte("x")); err == nil {
		t.Fatal("broadcast to an empty fleet accepted")
	}
	if len(a.revoked) != 2 {
		t.Errorf("revoked = %d", len(a.revoked))
	}
}

func TestBroadcastValidation(t *testing.T) {
	if _, err := NewBroadcastAuthority(Key{}, 0); err == nil {
		t.Error("capacity 0 accepted")
	}
	a := newBC(t, 4)
	if _, err := a.DeviceKeys(-1); err == nil {
		t.Error("negative slot accepted")
	}
	if _, err := a.DeviceKeys(4); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if err := a.Revoke(99); err == nil {
		t.Error("out-of-range revoke accepted")
	}
}

func TestBroadcastCapacityRoundsUp(t *testing.T) {
	a := newBC(t, 5)
	if a.Capacity() != 8 {
		t.Errorf("capacity = %d, want 8", a.Capacity())
	}
}

func TestBroadcastRingRoundTrip(t *testing.T) {
	a := newBC(t, 8)
	ring := NewKeyAuthority(DeriveKey(Key{}, "m")).Ring()
	msg, err := a.BroadcastRing(ring)
	if err != nil {
		t.Fatal(err)
	}
	dk, _ := a.DeviceKeys(5)
	got, err := dk.OpenRing(msg)
	if err != nil || got != ring {
		t.Fatalf("ring round trip: %v", err)
	}
}

func TestBroadcastTamperDetection(t *testing.T) {
	a := newBC(t, 4)
	msg, err := a.Broadcast([]byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	dk, _ := a.DeviceKeys(0)
	bad := BroadcastMessage{Entries: []BroadcastEntry{{
		Node:       msg.Entries[0].Node,
		Ciphertext: append([]byte(nil), msg.Entries[0].Ciphertext...),
	}}}
	bad.Entries[0].Ciphertext[3] ^= 1
	if _, err := dk.Open(bad); err == nil {
		t.Fatal("tampered broadcast accepted")
	}
	// An entry re-labeled to another node fails (AAD binding).
	moved := BroadcastMessage{Entries: []BroadcastEntry{{
		Node:       2, // a key slot 0 holds, but ct was sealed for node 1
		Ciphertext: msg.Entries[0].Ciphertext,
	}}}
	if _, err := dk.Open(moved); err == nil {
		t.Fatal("node-swapped broadcast accepted")
	}
}

// Property: for random revocation sets, exactly the non-revoked devices
// open the broadcast.
func TestBroadcastQuick(t *testing.T) {
	f := func(mask uint16) bool {
		a, err := NewBroadcastAuthority(DeriveKey(Key{}, "bc-q"), 16)
		if err != nil {
			return false
		}
		if mask == 0xFFFF {
			mask = 0xFFFE // keep one device alive
		}
		for s := 0; s < 16; s++ {
			if mask&(1<<s) != 0 {
				if err := a.Revoke(s); err != nil {
					return false
				}
			}
		}
		msg, err := a.Broadcast([]byte("p"))
		if err != nil {
			return false
		}
		for s := 0; s < 16; s++ {
			dk, err := a.DeviceKeys(s)
			if err != nil {
				return false
			}
			_, err = dk.Open(msg)
			revoked := mask&(1<<s) != 0
			if revoked != (err != nil) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
