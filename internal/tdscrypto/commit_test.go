package tdscrypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
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

// TestFoldStreamSplitInvariance: the block buffer in front of the MAC
// must not show in the commitment. Streams over segment lengths around
// the buffer's edges — shorter, exactly filling it, one over, larger than
// the whole buffer — equal a one-shot HMAC over the framed bytes, whether
// they arrive as bytes, as a string or as a counter, and so do streams
// that take a pooled state a finished stream handed back.
func TestFoldStreamSplitInvariance(t *testing.T) {
	key := DeriveKey(Key{}, "split")
	c := NewCommitter(key)
	commitKey := DeriveKey(key, "commit")
	reference := func(prefix, domain string, segs [][]byte) []byte {
		mac := hmac.New(sha256.New, commitKey[:])
		mac.Write([]byte(prefix + domain))
		for _, seg := range segs {
			var frame [8]byte
			binary.BigEndian.PutUint64(frame[:], uint64(len(seg)))
			mac.Write(frame[:])
			mac.Write(seg)
		}
		return mac.Sum(nil)[:CommitSize]
	}
	fill := bytes.Repeat([]byte("0123456789abcdef"), 126)
	seg := func(n int) []byte { return fill[len(fill)-n:] }
	block := len(foldState{}.buf)

	var shapes [][]int
	for n := 0; n <= 2000; n++ {
		shapes = append(shapes, []int{n}, []int{7, n, 62}, []int{n, n})
	}
	for _, edge := range []int{block - 8, block, 2 * block} {
		for d := -20; d <= 20; d++ {
			shapes = append(shapes, []int{edge + d, 0, 16}, []int{16, 62, edge + d, 1})
		}
	}
	tuple := []int{0, 62, 16} // the benchmark's tuple: no tag, 62-byte ciphertext, digest
	long := []int{}
	for i := 0; i < 300; i++ {
		long = append(long, tuple...)
	}
	shapes = append(shapes, nil, long)

	for i, lens := range shapes {
		segs := make([][]byte, len(lens))
		for j, n := range lens {
			segs[j] = seg(n)
		}
		// Alternate the ways a previous stream ended, so this one starts
		// from a state Sum or Discard recycled with bytes still buffered.
		prev := c.StartCommit("previous")
		prev.Add(seg(i % 700))
		if i%2 == 0 {
			prev.Sum()
		}
		prev.Discard() // after Sum: a second finish, which must not pool the state twice
		domain := "partition/aggregate-1"
		leaf, fold := c.StartCommit(domain), c.StartFold(domain)
		for _, s := range segs {
			leaf.Add(s)
			fold.AddString(string(s)) // the same frames and bytes, cut at the buffer's edge
		}
		leaf.AddUint64(uint64(i) << 20)
		counter := binary.BigEndian.AppendUint64(nil, uint64(i)<<20)
		if got, want := leaf.Sum(), reference("commit/leaf/", domain, append(segs[:len(segs):len(segs)], counter)); !bytes.Equal(got, want) {
			t.Fatalf("leaf over lengths %v and a counter = %x, want %x", lens, got, want)
		}
		if got, want := fold.Sum(), reference("commit/fold/", domain, segs); !bytes.Equal(got, want) {
			t.Fatalf("fold over lengths %v = %x, want %x", lens, got, want)
		}
	}
}

// TestFoldStreamAllocBudget: a stream costs its commitment, however many
// segments it absorbs — the handle stays in the caller's frame, the domain
// is copied from where it is, and the MAC state and the block buffer come
// from the committer's pool.
func TestFoldStreamAllocBudget(t *testing.T) {
	c := NewCommitter(DeriveKey(Key{}, "allocs"))
	ct, digest := make([]byte, 62), make([]byte, 16)
	stream := func(tuples int) float64 {
		return testing.AllocsPerRun(50, func() {
			s := c.StartCommit("deposit")
			for i := 0; i < tuples; i++ {
				s.Add(nil)
				s.Add(ct)
				s.Add(digest)
			}
			s.Sum()
		})
	}
	// Measured at 1 and 1. The slack is for pooled states a GC or the race
	// detector drops; one allocation per segment would add 900.
	if small, large := stream(1), stream(300); large > small+2 || large > 6 {
		t.Errorf("a stream allocates %v times over 1 tuple and %v over 300; budget 6, and no growth", small, large)
	}
}

// BenchmarkCommitTuples times a deposit leaf on the deep_device shape:
// 300 tuples of a 62-byte ciphertext and a 16-byte digest.
func BenchmarkCommitTuples(b *testing.B) {
	c := NewCommitter(DeriveKey(Key{}, "bench"))
	ct, digest := make([]byte, 62), make([]byte, 16)
	b.SetBytes(300 * (3*8 + 62 + 16))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := c.StartCommit("deposit")
		for j := 0; j < 300; j++ {
			s.Add(nil)
			s.Add(ct)
			s.Add(digest)
		}
		s.Sum()
	}
}
