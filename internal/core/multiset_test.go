package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/tdscrypto"
)

// refMultisetEqual is the map-of-framed-strings check multisetEqual
// replaced, kept as the reference the table test and the fuzz target
// compare against: one length-framed string key per tuple, counted in a
// map.
func refMultisetEqual(input []protocol.WireTuple, parts [][]protocol.WireTuple) bool {
	m := make(map[string]int, len(input))
	for _, w := range input {
		m[tupleKey(w)]++
	}
	n := 0
	for _, p := range parts {
		for _, w := range p {
			k := tupleKey(w)
			if m[k] == 0 {
				return false
			}
			m[k]--
			n++
		}
	}
	return n == len(input)
}

// tupleKey frames a tuple's fields into one string.
func tupleKey(w protocol.WireTuple) string {
	b := make([]byte, 0, 16+w.Size())
	b = binary.AppendUvarint(b, uint64(len(w.Tag)))
	b = append(b, w.Tag...)
	b = binary.AppendUvarint(b, uint64(len(w.Ciphertext)))
	b = append(b, w.Ciphertext...)
	b = append(b, w.Digest...)
	return string(b)
}

// refPositions is the covering-build check's reference: pos names every
// input position once, and each holds a tuple equal to the one naming it.
func refPositions(input []protocol.WireTuple, parts [][]protocol.WireTuple, pos []int32) bool {
	flat, named := slices.Concat(parts...), make(map[int32]bool)
	for k := 0; k < len(flat) && k < len(pos); k++ {
		if i := int(pos[k]); i < 0 || i >= len(input) || named[pos[k]] || tupleKey(input[i]) != tupleKey(flat[k]) {
			return false
		}
		named[pos[k]] = true
	}
	return len(flat) == len(input) && len(pos) == len(input)
}

// positionsOf names the input position of every tuple of an honest build,
// in build order; equal tuples take their positions in input order.
func positionsOf(input []protocol.WireTuple, parts [][]protocol.WireTuple) (pos []int32) {
	at := make(map[string][]int32)
	for i, w := range input {
		at[tupleKey(w)] = append(at[tupleKey(w)], int32(i))
	}
	for _, w := range slices.Concat(parts...) {
		q := at[tupleKey(w)]
		pos, at[tupleKey(w)] = append(pos, q[0]), q[1:]
	}
	return pos
}

func wt(tag, ct, digest string) protocol.WireTuple {
	return protocol.WireTuple{Tag: []byte(tag), Ciphertext: []byte(ct), Digest: []byte(digest)}
}

func TestMultisetEqual(t *testing.T) {
	a, b, c := wt("t", "ct-a", "d"), wt("t", "ct-b", "d"), wt("", "ct-c", "")
	same := []protocol.WireTuple{a, a, a, a, a}
	type parts = [][]protocol.WireTuple
	for _, tc := range []struct {
		name  string
		input []protocol.WireTuple
		parts parts
		want  bool
	}{
		{"identity", []protocol.WireTuple{a, b, c}, parts{{a, b, c}}, true},
		{"reordered and regrouped", []protocol.WireTuple{a, b, c}, parts{{c}, {b, a}}, true},
		{"empty partitions between", []protocol.WireTuple{a, b}, parts{{}, {b}, nil, {a}, {}}, true},
		{"dropped", []protocol.WireTuple{a, b, c}, parts{{a}, {c}}, false},
		{"duplicated over a drop", []protocol.WireTuple{a, b, c}, parts{{a, a}, {c}}, false},
		{"duplicated", []protocol.WireTuple{a, b}, parts{{a, b}, {a}}, false},
		{"substituted, same length", []protocol.WireTuple{a, b, c}, parts{{a, wt("t", "ct-x", "d"), c}}, false},
		{"substituted digest", []protocol.WireTuple{a}, parts{{wt("t", "ct-a", "e")}}, false},
		{"byte moved across the tag/ciphertext frame",
			[]protocol.WireTuple{wt("ab", "c", "")}, parts{{wt("a", "bc", "")}}, false},
		{"byte moved across the ciphertext/digest frame",
			[]protocol.WireTuple{wt("", "ab", "c")}, parts{{wt("", "a", "bc")}}, false},
		{"k identical tuples", same, parts{same[:2], same[2:]}, true},
		{"k identical tuples, one short", same, parts{same[:4]}, false},
		{"k identical tuples, one swapped", same, parts{{a, a, a, a, b}}, false},
		{"k identical tuples, one extra", same[:4], parts{same}, false},
		{"count mismatch, all present", []protocol.WireTuple{a, b}, parts{{a, b, b}}, false},
		{"empty input, no partitions", nil, nil, true},
		{"empty input, empty partitions", nil, parts{{}, nil}, true},
		{"empty input, something built", nil, parts{{a}}, false},
		{"input, nothing built", []protocol.WireTuple{a}, nil, false},
	} {
		st := &integrityState{}
		// Twice: the second call runs on the first one's scratch.
		for pass := 0; pass < 2; pass++ {
			if got := st.multisetEqual(tc.input, tc.parts); got != tc.want {
				t.Errorf("%s (pass %d): multisetEqual = %v, want %v", tc.name, pass, got, tc.want)
			}
		}
		if ref := refMultisetEqual(tc.input, tc.parts); ref != tc.want {
			t.Errorf("%s: the reference says %v, the table %v", tc.name, ref, tc.want)
		}
	}
}

// TestMultisetEqualScratchReuse runs builds of shrinking and growing size
// through one state, as a run's phases do: stale chains of a larger
// earlier build must not leak into a later check.
func TestMultisetEqualScratchReuse(t *testing.T) {
	st := &integrityState{}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{300, 7, 0, 64, 1, 500, 2} {
		input := benchTuples(n, 4)
		parts := shuffledParts(input, 5, rng)
		if !st.multisetEqual(input, parts) {
			t.Fatalf("n=%d: honest build rejected", n)
		}
		if n == 0 {
			continue
		}
		p := parts[rng.Intn(len(parts))]
		p[rng.Intn(len(p))] = wt("x", "not-in-the-input", "")
		if st.multisetEqual(input, parts) {
			t.Fatalf("n=%d: substituted tuple accepted", n)
		}
	}
}

// TestMultisetEqualAllocs pins the allocation-free property: with the
// scratch warm, a call allocates nothing, whatever N. Nor does a warm
// position check of a permuted covering build.
func TestMultisetEqualAllocs(t *testing.T) {
	st := &integrityState{}
	rng := rand.New(rand.NewSource(2))
	big := benchTuples(4096, 16)
	st.multisetEqual(big, shuffledParts(big, 50, rng))
	for _, n := range []int{64, 1024, 4096} {
		input := big[:n]
		parts := shuffledParts(input, 50, rng)
		if got := testing.AllocsPerRun(10, func() {
			if !st.multisetEqual(input, parts) {
				t.Fatal("honest build rejected")
			}
		}); got != 0 {
			t.Errorf("N=%d: %.0f allocations per warm call, want 0", n, got)
		}
	}
	rs, parts := digestRun(big[:1000], big[1000:]), shuffledParts(big, 50, rng)
	pos := positionsOf(big, parts)
	if got := testing.AllocsPerRun(10, func() { rs.integ.positionsMatch(parts, pos) }); got != 0 || !rs.integ.positionsMatch(parts, pos) {
		t.Errorf("%.0f allocations per warm position check, want 0 and a pass", got)
	}
}

// benchTuples makes n distinct ciphertext tuples spread over the given
// number of tags, shaped like collection output (a Det_Enc tag, an nDet
// ciphertext, a keyed digest).
func benchTuples(n, tags int) []protocol.WireTuple {
	rng := rand.New(rand.NewSource(int64(n)*31 + int64(tags)))
	out := make([]protocol.WireTuple, n)
	for i := range out {
		ct := make([]byte, 64)
		rng.Read(ct)
		binary.BigEndian.PutUint32(ct, uint32(i)) // distinct whatever the draw
		out[i] = protocol.WireTuple{
			Tag:        []byte(fmt.Sprintf("tag-%04d-padded-to-28-bytes", i%tags)),
			Ciphertext: ct,
			Digest:     ct[48:64],
		}
	}
	return out
}

// shuffledParts deals a shuffled copy of input into partitions of per
// tuples.
func shuffledParts(input []protocol.WireTuple, per int, rng *rand.Rand) [][]protocol.WireTuple {
	cp := append([]protocol.WireTuple(nil), input...)
	rng.Shuffle(len(cp), func(i, j int) { cp[i], cp[j] = cp[j], cp[i] })
	var parts [][]protocol.WireTuple
	for len(cp) > 0 {
		k := min(per, len(cp))
		parts = append(parts, cp[:k:k])
		cp = cp[k:]
	}
	return parts
}

// fuzzTuples decodes tuples from fuzz bytes over a two-letter alphabet
// with fields of 0–3 bytes, so equal tuples, equal concatenations under
// different framings and empty fields all turn up constantly.
func fuzzTuples(data []byte) []protocol.WireTuple {
	var out []protocol.WireTuple
	field := func(n int) []byte {
		n = min(n, len(data))
		f := make([]byte, n)
		for i := range f {
			f[i] = 'a' + data[i]&1
		}
		data = data[n:]
		return f
	}
	for len(data) > 0 {
		h := data[0]
		data = data[1:]
		out = append(out, protocol.WireTuple{
			Tag: field(int(h & 3)), Ciphertext: field(int(h >> 2 & 3)), Digest: field(int(h >> 4 & 3)),
		})
	}
	return out
}

// digestRun is the part of a run a build check reads: a verifier, the
// views of a verified covering result under a stand-in collection root,
// and a store serving the same tuples.
func digestRun(views ...[]protocol.WireTuple) *runState {
	return &runState{post: &protocol.QueryPost{ID: "q"}, verify: true,
		verifier: tdscrypto.NewCommitter(tdscrypto.Key{}),
		ssi:      &verifyStore{tuples: slices.Concat(views...), tamper: -1},
		integ:    &integrityState{views: views, digest: []byte("root")}}
}

// TestIntegrityDigestPinsGrouping holds a build's digest to its grouping,
// not just its multiset: the same tuples cut or ordered differently fold
// to a different digest, whether the fold commits partition boundaries
// (the covering result in deposit order), the store positions the build
// names (permuted) or bytes (relayed partials); the same build folds to
// the same digest.
func TestIntegrityDigestPinsGrouping(t *testing.T) {
	a, b, c, d := wt("t", "ct-a", "d"), wt("t", "ct-b", "d"), wt("", "ct-c", ""), wt("u", "ct-d", "e")
	input := []protocol.WireTuple{a, b, c, d}
	type parts = [][]protocol.WireTuple
	for _, tc := range []struct {
		name     string
		covering bool
		x, y     parts
	}{
		{"in order, a boundary moved", true, parts{{a, b}, {c, d}}, parts{{a}, {b, c, d}}},
		{"in order, an empty partition added", true, parts{{a, b}, {c, d}}, parts{{a, b}, {}, {c, d}}},
		{"in order vs permuted", true, parts{{a, b}, {c, d}}, parts{{b, a}, {c, d}}},
		{"permuted, a tuple moved", true, parts{{b, a}, {d, c}}, parts{{b}, {a, d, c}}},
		{"permuted, partitions swapped", true, parts{{b, a}, {d, c}}, parts{{d, c}, {b, a}}},
		{"relayed, a tuple moved", false, parts{{a, b}, {c, d}}, parts{{a}, {b, c, d}}},
		{"relayed, reordered", false, parts{{a, b}, {c, d}}, parts{{b, a}, {c, d}}},
	} {
		digest := func(p parts) []byte {
			rs := digestRun(input[:1], input[1:]) // a covering build is checked against its views
			if !rs.foldBuild("step", tc.covering, input, p, positionsOf(input, p)) {
				t.Fatalf("%s: honest build %v rejected", tc.name, p)
			}
			return rs.integ.digest
		}
		x := digest(tc.x)
		if !bytes.Equal(x, digest(tc.x)) {
			t.Errorf("%s: one build, two digests", tc.name)
		}
		if bytes.Equal(x, digest(tc.y)) {
			t.Errorf("%s: %v and %v fold to one digest", tc.name, tc.x, tc.y)
		}
	}
}

// FuzzMultisetEqual holds the index-table check to the reference on
// honest builds and on every way of tampering with one: drop, duplicate,
// substitute, reframe, append foreign tuples. A build is a seeded shuffle
// of the input, regrouped, or deposit-order windows of it, their bytes
// shared with the input or copied into arrays of their own; the input is
// also the covering result of a run, verified in deposits of seeded
// sizes, and the build names its honest tuples' positions (two swapped,
// or one repeated, if the seed says so). The covering-build check must accept exactly the
// builds in deposit order and the permutations whose every position names
// an equal verified tuple.
func FuzzMultisetEqual(f *testing.F) {
	f.Add([]byte{0x15, 'a', 'b', 'a', 0x15, 'a', 'b', 'a', 0x06, 'b', 'a', 'a'}, []byte{}, int64(1), uint8(0), uint8(2))
	f.Add([]byte{0x06, 'a', 'b', 'c'}, []byte{0x09, 'a', 'b', 'c'}, int64(2), uint8(5), uint8(0))
	f.Add([]byte{0, 0, 0, 0}, []byte{0}, int64(3), uint8(2), uint8(1))
	f.Add([]byte{}, []byte{}, int64(4), uint8(1), uint8(3))
	f.Add([]byte{0x15, 'a', 'b', 'a', 0x2a, 'b', 'a', 'a', 'b', 0x06, 'b', 'a'}, []byte{}, int64(5), uint8(6), uint8(1))
	f.Add([]byte{0x15, 'a', 'b', 'a', 0x2a, 'b', 'a', 'a', 'b', 0x06, 'b', 'a'}, []byte{}, int64(6), uint8(19), uint8(4))
	// A repeated position over equal tuples: only the once-each check rejects it.
	f.Add([]byte("000000000"), []byte("0"), int64(-83), uint8(52), uint8(0))
	st := &integrityState{} // one state for the whole run: scratch reuse is part of what is fuzzed
	f.Fuzz(func(t *testing.T, data, foreign []byte, seed int64, tamper, per uint8) {
		input := fuzzTuples(data)
		rng := rand.New(rand.NewSource(seed))
		var views [][]protocol.WireTuple
		for rest := input; len(rest) > 0 || rng.Intn(3) == 0; {
			k := min(rng.Intn(4), len(rest)) // empty deposits too
			views, rest = append(views, rest[:k]), rest[k:]
		}
		parts := shuffledParts(input, int(per%7)+1, rng)
		if tamper/6%2 == 1 { // deposit order
			parts = nil
			for rest := slices.Clone(input); len(rest) > 0; {
				k := min(int(per%7)+1, len(rest))
				parts, rest = append(parts, rest[:k:k]), rest[k:]
			}
		}
		if tamper/12%2 == 1 { // equal bytes in arrays of their own
			for _, p := range parts {
				for i := range p {
					p[i] = wt(string(p[i].Tag), string(p[i].Ciphertext), string(p[i].Digest))
				}
			}
		}
		pos := positionsOf(input, parts)
		if last, lie := len(pos)-1, int(tamper/24%3); last > 0 && lie > 0 { // 1 swaps the first and last, 2 repeats the first
			pos[0], pos[last] = pos[[]int{last, 0}[lie-1]], pos[0]
		}
		pick := func() *protocol.WireTuple {
			p := parts[rng.Intn(len(parts))]
			return &p[rng.Intn(len(p))]
		}
		switch {
		case tamper%6 == 5:
			parts = append(parts, fuzzTuples(foreign))
		case len(input) == 0:
		case tamper%6 == 1: // drop
			i := rng.Intn(len(parts))
			parts[i] = parts[i][1:]
		case tamper%6 == 2: // duplicate one tuple over another
			*pick() = *pick()
		case tamper%6 == 3: // substitute a byte, same lengths
			if w := pick(); len(w.Ciphertext) > 0 {
				ct := append([]byte(nil), w.Ciphertext...)
				ct[0] ^= 3
				w.Ciphertext = ct
			}
		case tamper%6 == 4: // move the tag/ciphertext frame
			if w := pick(); len(w.Tag) > 0 {
				w.Tag, w.Ciphertext = w.Tag[:len(w.Tag)-1],
					append([]byte{w.Tag[len(w.Tag)-1]}, w.Ciphertext...)
			}
		}
		want := refMultisetEqual(input, parts)
		if got := st.multisetEqual(input, parts); got != want {
			t.Fatalf("multisetEqual = %v, reference = %v\ninput %q\nparts %q", got, want, input, parts)
		}
		want = refPositions(input, parts, pos) || slices.EqualFunc(slices.Concat(parts...), input,
			func(a, b protocol.WireTuple) bool { return tupleKey(a) == tupleKey(b) })
		rs := digestRun(views...)
		if got := rs.foldBuild("fuzz", true, nil, parts, pos); got != want {
			t.Fatalf("covering build check = %v, reference = %v\ninput %q\nviews %q\nparts %q\npos %v",
				got, want, input, views, parts, pos)
		}
		if tamper%6 == 0 && tamper/6%2 == 1 && !rs.integ.inOrder(parts) {
			t.Fatalf("an honest deposit-order build missed the identity walk\nviews %q\nparts %q", views, parts)
		}
	})
}
