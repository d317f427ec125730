package tdscrypto

import (
	"bytes"
	"encoding/hex"
	"testing"
)

func TestCommitDeterministicAndKeyed(t *testing.T) {
	k := DeriveKey(Key{}, "test-master")
	c1, c2 := NewCommitter(k), NewCommitter(k)
	a := c1.Commit("deposit", []byte("q-1"), []byte("tds-1"), []byte{1, 2, 3})
	b := c2.Commit("deposit", []byte("q-1"), []byte("tds-1"), []byte{1, 2, 3})
	if !bytes.Equal(a, b) {
		t.Fatal("equal keys and inputs produced different commitments")
	}
	if len(a) != CommitSize {
		t.Fatalf("commitment size %d, want %d", len(a), CommitSize)
	}
	other := NewCommitter(DeriveKey(Key{}, "other-master"))
	if bytes.Equal(a, other.Commit("deposit", []byte("q-1"), []byte("tds-1"), []byte{1, 2, 3})) {
		t.Fatal("different keys produced equal commitments")
	}
	if !CommitEqual(a, b) {
		t.Fatal("CommitEqual rejects equal commitments")
	}
	if CommitEqual(a, other.Commit("deposit", []byte("q-1"))) {
		t.Fatal("CommitEqual accepts unequal commitments")
	}
	if CommitEqual(nil, nil) {
		t.Fatal("CommitEqual accepts empty commitments")
	}
}

func TestCommitFraming(t *testing.T) {
	c := NewCommitter(DeriveKey(Key{}, "frame"))
	// Shifting bytes across segment boundaries must change the commitment.
	a := c.Commit("d", []byte("ab"), []byte("c"))
	b := c.Commit("d", []byte("a"), []byte("bc"))
	if bytes.Equal(a, b) {
		t.Fatal("segment boundaries are not framed")
	}
	// Domains separate.
	if bytes.Equal(c.Commit("d1", []byte("x")), c.Commit("d2", []byte("x"))) {
		t.Fatal("domains do not separate commitments")
	}
	// Leaf and fold shapes separate even over equal bytes.
	if bytes.Equal(c.Commit("d", []byte("x")), c.Fold("d", []byte("x"))) {
		t.Fatal("Commit and Fold collide")
	}
	// Fold is sensitive to child order and count.
	l1, l2 := c.Commit("d", []byte("1")), c.Commit("d", []byte("2"))
	if bytes.Equal(c.Fold("d", l1, l2), c.Fold("d", l2, l1)) {
		t.Fatal("fold ignores child order")
	}
	if bytes.Equal(c.Fold("d", l1, l2), c.Fold("d", append(append([]byte{}, l1...), l2...))) {
		t.Fatal("fold over two children collides with fold over their concatenation")
	}
}

func TestCommitConcurrentUse(t *testing.T) {
	c := NewCommitter(DeriveKey(Key{}, "conc"))
	want := c.Commit("d", []byte("payload"))
	done := make(chan []byte, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- c.Commit("d", []byte("payload")) }()
	}
	for i := 0; i < 8; i++ {
		if got := <-done; !bytes.Equal(got, want) {
			t.Fatalf("concurrent commitment diverged: %x != %x", got, want)
		}
	}
}

// TestCommitGoldenVectors pins commitment bytes under a fixed key. The
// vectors were generated before StartCommit existed; a verifier and a
// device built from different commits of this package must still agree,
// so they never change.
func TestCommitGoldenVectors(t *testing.T) {
	c := NewCommitter(DeriveKey(Key{}, "golden"))
	l1, l2 := c.Commit("d", []byte("1")), c.Commit("d", []byte("2"))
	for _, tc := range []struct {
		name   string
		stream func(string) *FoldStream
		oneGo  func(string, ...[]byte) []byte
		domain string
		in     [][]byte
		want   string
	}{
		{"commit/empty", c.StartCommit, c.Commit, "deposit", nil,
			"e9c78dda60fb5c5f2775eac62cde5aee"},
		{"commit/three", c.StartCommit, c.Commit, "deposit",
			[][]byte{[]byte("q-1"), []byte("tds-1"), {1, 2, 3}},
			"5ae347349d856d5878247bc10cc5c27f"},
		{"commit/empty-segments", c.StartCommit, c.Commit, "partition/aggregate-1",
			[][]byte{nil, []byte("x"), {}},
			"22cbbc787950a8a534e03523f1138f2e"},
		{"fold/empty", c.StartFold, c.Fold, "collection-root", nil,
			"b34b13045c20039722700212e85b4d9b"},
		{"fold/two", c.StartFold, c.Fold, "collection-root", [][]byte{l1, l2},
			"511f10b653371724bd8090b0124c1f0b"},
		{"fold/nil-child", c.StartFold, c.Fold, "phase/filtering", [][]byte{nil, l1},
			"14864fc446557e035c672efc0599aa7b"},
	} {
		if got := hex.EncodeToString(tc.oneGo(tc.domain, tc.in...)); got != tc.want {
			t.Errorf("%s: one-shot = %s, want %s", tc.name, got, tc.want)
		}
		s := tc.stream(tc.domain)
		for _, seg := range tc.in {
			s.Add(seg)
		}
		if got := hex.EncodeToString(s.Sum()); got != tc.want {
			t.Errorf("%s: streamed = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestFoldStreamAddDoesNotAllocate pins the length frame inside the
// stream: as a local of Add it escaped through hash.Hash, one heap
// allocation per absorbed segment — three per tuple on the verifier.
func TestFoldStreamAddDoesNotAllocate(t *testing.T) {
	c := NewCommitter(DeriveKey(Key{}, "allocs"))
	seg := bytes.Repeat([]byte{7}, 100)
	s := c.StartCommit("d")
	defer s.Discard()
	if n := testing.AllocsPerRun(100, func() { s.Add(seg) }); n != 0 {
		t.Fatalf("FoldStream.Add allocates %.0f times per call, want 0", n)
	}
}
