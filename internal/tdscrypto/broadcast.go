package tdscrypto

import (
	"encoding/binary"
	"fmt"
)

// Broadcast key distribution (footnote 7: "a broadcast encryption scheme
// can also be used to securely exchange keys between TDSs and querier"),
// implemented as the complete-subtree method of Naor-Naor-Lotspiech:
//
//   - devices occupy the leaves of a binary tree; each device holds the
//     keys of every node on its leaf-to-root path (h+1 keys);
//   - to broadcast to all non-revoked devices, the authority covers the
//     non-revoked leaves with maximal subtrees containing no revoked leaf
//     and encrypts the payload once under each cover node's key;
//   - a revoked device shares no node with the cover (every node on its
//     path has a revoked leaf — itself — beneath it) and learns nothing.
//
// With r revoked devices out of n, the cover has O(r·log(n/r)) entries.
// This is how a fleet expels devices the audit extension caught
// tampering: revoke, then broadcast a fresh key ring.

// nodeKey is one node's key, labeled by heap index (root = 1).
type nodeKey struct {
	node uint64
	key  Key
}

// BroadcastAuthority issues device key sets and encrypts to the
// non-revoked fleet.
type BroadcastAuthority struct {
	master   Key
	height   uint // tree height; capacity = 2^height leaves
	capacity int
	revoked  map[int]bool
}

// NewBroadcastAuthority creates an authority for up to capacity devices
// (rounded up to a power of two).
func NewBroadcastAuthority(master Key, capacity int) (*BroadcastAuthority, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("tdscrypto: broadcast capacity must be positive")
	}
	h := uint(0)
	for 1<<h < capacity {
		h++
		if h > 31 {
			return nil, fmt.Errorf("tdscrypto: broadcast capacity %d too large", capacity)
		}
	}
	return &BroadcastAuthority{
		master:   DeriveKey(master, "broadcast-tree"),
		height:   h,
		capacity: 1 << h,
		revoked:  make(map[int]bool),
	}, nil
}

// Capacity returns the leaf count of the tree.
func (a *BroadcastAuthority) Capacity() int { return a.capacity }

// nodeKeyFor derives the key of a tree node.
func (a *BroadcastAuthority) nodeKeyFor(node uint64) Key {
	return DeriveKey(a.master, fmt.Sprintf("node/%d", node))
}

// leafNode converts a device slot to its heap index.
func (a *BroadcastAuthority) leafNode(slot int) uint64 {
	return uint64(a.capacity + slot)
}

// DeviceKeySet is the key material installed in one device at enrollment:
// the keys of every node on its path. On real hardware it lives inside
// the TEE.
type DeviceKeySet struct {
	Slot int
	keys []nodeKey
}

// DeviceKeys issues the path key set for a device slot.
func (a *BroadcastAuthority) DeviceKeys(slot int) (DeviceKeySet, error) {
	if slot < 0 || slot >= a.capacity {
		return DeviceKeySet{}, fmt.Errorf("tdscrypto: slot %d out of range [0,%d)", slot, a.capacity)
	}
	set := DeviceKeySet{Slot: slot}
	for node := a.leafNode(slot); node >= 1; node /= 2 {
		set.keys = append(set.keys, nodeKey{node: node, key: a.nodeKeyFor(node)})
		if node == 1 {
			break
		}
	}
	return set, nil
}

// Revoke excludes a device slot from all future broadcasts.
func (a *BroadcastAuthority) Revoke(slot int) error {
	if slot < 0 || slot >= a.capacity {
		return fmt.Errorf("tdscrypto: slot %d out of range", slot)
	}
	a.revoked[slot] = true
	return nil
}

// BroadcastEntry is one cover node's ciphertext.
type BroadcastEntry struct {
	Node       uint64
	Ciphertext []byte
}

// BroadcastMessage is a payload encrypted to every non-revoked device.
type BroadcastMessage struct {
	Entries []BroadcastEntry
}

// broadcastAAD binds a ciphertext to its cover node.
func broadcastAAD(node uint64) []byte {
	aad := []byte("tcq/broadcast/v1/")
	return binary.BigEndian.AppendUint64(aad, node)
}

// Broadcast encrypts payload so that exactly the non-revoked devices can
// open it.
func (a *BroadcastAuthority) Broadcast(payload []byte) (BroadcastMessage, error) {
	cover := a.cover(1)
	if len(cover) == 0 {
		return BroadcastMessage{}, fmt.Errorf("tdscrypto: every device is revoked")
	}
	msg := BroadcastMessage{Entries: make([]BroadcastEntry, 0, len(cover))}
	for _, node := range cover {
		suite, err := NewSuite(a.nodeKeyFor(node))
		if err != nil {
			return BroadcastMessage{}, err
		}
		ct, err := suite.NDetEncrypt(payload, broadcastAAD(node))
		if err != nil {
			return BroadcastMessage{}, err
		}
		msg.Entries = append(msg.Entries, BroadcastEntry{Node: node, Ciphertext: ct})
	}
	return msg, nil
}

// cover returns the complete-subtree cover of the non-revoked leaves under
// node.
func (a *BroadcastAuthority) cover(node uint64) []uint64 {
	if !a.subtreeHasRevoked(node) {
		if a.subtreeHasLive(node) {
			return []uint64{node}
		}
		return nil
	}
	if node >= uint64(a.capacity) {
		return nil // a revoked leaf
	}
	left := a.cover(2 * node)
	return append(left, a.cover(2*node+1)...)
}

// leafRange returns the slot interval [lo, hi) covered by node.
func (a *BroadcastAuthority) leafRange(node uint64) (lo, hi int) {
	span := uint64(1)
	for node < uint64(a.capacity) {
		node *= 2
		span *= 2
	}
	first := int(node) - a.capacity
	return first, first + int(span)
}

func (a *BroadcastAuthority) subtreeHasRevoked(node uint64) bool {
	lo, hi := a.leafRange(node)
	for s := lo; s < hi; s++ {
		if a.revoked[s] {
			return true
		}
	}
	return false
}

func (a *BroadcastAuthority) subtreeHasLive(node uint64) bool {
	lo, hi := a.leafRange(node)
	for s := lo; s < hi; s++ {
		if !a.revoked[s] {
			return true
		}
	}
	return false
}

// Open decrypts a broadcast with the device's path keys. A revoked device
// holds no cover-node key and fails.
func (d DeviceKeySet) Open(msg BroadcastMessage) ([]byte, error) {
	byNode := make(map[uint64]Key, len(d.keys))
	for _, nk := range d.keys {
		byNode[nk.node] = nk.key
	}
	for _, e := range msg.Entries {
		k, ok := byNode[e.Node]
		if !ok {
			continue
		}
		suite, err := NewSuite(k)
		if err != nil {
			return nil, err
		}
		pt, err := suite.Decrypt(e.Ciphertext, broadcastAAD(e.Node))
		if err != nil {
			return nil, fmt.Errorf("tdscrypto: broadcast entry for node %d: %w", e.Node, err)
		}
		return pt, nil
	}
	return nil, fmt.Errorf("tdscrypto: no broadcast entry matches this device (revoked?)")
}

// BroadcastRing wraps a key ring as the broadcast payload.
func (a *BroadcastAuthority) BroadcastRing(ring KeyRing) (BroadcastMessage, error) {
	payload := make([]byte, 0, 2*KeySize)
	payload = append(payload, ring.K1[:]...)
	payload = append(payload, ring.K2[:]...)
	return a.Broadcast(payload)
}

// OpenRing recovers a broadcast key ring.
func (d DeviceKeySet) OpenRing(msg BroadcastMessage) (KeyRing, error) {
	pt, err := d.Open(msg)
	if err != nil {
		return KeyRing{}, err
	}
	if len(pt) != 2*KeySize {
		return KeyRing{}, fmt.Errorf("tdscrypto: bad ring payload length %d", len(pt))
	}
	var ring KeyRing
	copy(ring.K1[:], pt[:KeySize])
	copy(ring.K2[:], pt[KeySize:])
	return ring, nil
}
