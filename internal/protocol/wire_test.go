package protocol

import (
	"bytes"
	"encoding/hex"
	"math"
	"testing"
	"time"

	"github.com/trustedcells/tcq/internal/accessctl"
	"github.com/trustedcells/tcq/internal/sqlparse"
	"github.com/trustedcells/tcq/internal/storage"
	"github.com/trustedcells/tcq/internal/tdscrypto"
)

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindBasic: "Basic", KindSAgg: "S_Agg", KindRnfNoise: "Rnf_Noise",
		KindCNoise: "C_Noise", KindEDHist: "ED_Hist",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("unknown kind rendering")
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	row := storage.Row{storage.Str("Paris"), storage.Float(42)}
	for _, tc := range []struct {
		payload []byte
		marker  MarkerByte
	}{
		{TruePayload(row), MarkerTrue},
		{AppendRowPayload(nil, MarkerFake, row), MarkerFake},
		{DummyPayload(32), MarkerDummy},
		{EncodePayload(MarkerPartial, []byte("blob")), MarkerPartial},
	} {
		m, body, err := DecodePayload(tc.payload)
		if err != nil {
			t.Fatal(err)
		}
		if m != tc.marker {
			t.Errorf("marker = %d, want %d", m, tc.marker)
		}
		if tc.marker == MarkerTrue || tc.marker == MarkerFake {
			dec, n, err := storage.DecodeRow(body)
			if err != nil || n != len(body) {
				t.Fatalf("row decode: %v", err)
			}
			if dec.Key() != row.Key() {
				t.Errorf("row = %v", dec)
			}
		}
	}
}

func TestDecodePayloadRejectsGarbage(t *testing.T) {
	if _, _, err := DecodePayload(nil); err == nil {
		t.Error("empty payload accepted")
	}
	if _, _, err := DecodePayload([]byte{0}); err == nil {
		t.Error("marker 0 accepted")
	}
	if _, _, err := DecodePayload([]byte{99}); err == nil {
		t.Error("marker 99 accepted")
	}
}

func TestDummyPayloadRandomizedPadding(t *testing.T) {
	a, b := DummyPayload(64), DummyPayload(64)
	if len(a) != 65 || len(b) != 65 {
		t.Fatalf("lengths %d/%d", len(a), len(b))
	}
	if bytes.Equal(a, b) {
		t.Error("dummy padding must be random")
	}
}

func TestQueryPostRoundTrip(t *testing.T) {
	k1 := tdscrypto.MustSuite(tdscrypto.MustRandomKey())
	cred := accessctl.Credential{QuerierID: "q", Expiry: time.Now()}
	sql := `SELECT COUNT(*) FROM T GROUP BY g SIZE 10`
	size := sqlparse.MustParse(sql).Size
	post, err := NewQueryPost("q-1", KindSAgg, Params{Alpha: 3.6}, sql, k1, cred, size)
	if err != nil {
		t.Fatal(err)
	}
	if post.Size.MaxTuples != 10 {
		t.Errorf("size = %+v", post.Size)
	}
	stmt, err := post.OpenQuery(k1)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.String() != sqlparse.MustParse(sql).String() {
		t.Errorf("round trip = %s", stmt)
	}
}

func TestQueryPostWrongKeyOrAAD(t *testing.T) {
	k1 := tdscrypto.MustSuite(tdscrypto.MustRandomKey())
	other := tdscrypto.MustSuite(tdscrypto.MustRandomKey())
	post, err := NewQueryPost("q-1", KindSAgg, Params{}, `SELECT a FROM T`, k1,
		accessctl.Credential{}, sqlparse.SizeClause{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := post.OpenQuery(other); err == nil {
		t.Error("wrong key opened the query")
	}
	// Replaying the ciphertext under a different query ID must fail: the
	// AAD binds it.
	replay := &QueryPost{ID: "q-2", Kind: post.Kind, Params: post.Params,
		EncQuery: post.EncQuery, Credential: post.Credential, Size: post.Size}
	if _, err := replay.OpenQuery(k1); err == nil {
		t.Error("cross-query replay accepted")
	}
}

func TestQueryPostGarbledSQL(t *testing.T) {
	k1 := tdscrypto.MustSuite(tdscrypto.MustRandomKey())
	post, err := NewQueryPost("q-1", KindSAgg, Params{}, `this is not sql`, k1,
		accessctl.Credential{}, sqlparse.SizeClause{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := post.OpenQuery(k1); err == nil {
		t.Error("garbage SQL parsed")
	}
}

func TestWireTupleSize(t *testing.T) {
	w := WireTuple{Tag: make([]byte, 16), Ciphertext: make([]byte, 100)}
	if w.Size() != 116 {
		t.Errorf("size = %d", w.Size())
	}
	w.Digest = make([]byte, 16)
	if w.Size() != 132 {
		t.Errorf("size with digest = %d", w.Size())
	}
}

func TestTargetedTo(t *testing.T) {
	global := &QueryPost{}
	if !global.TargetedTo("anything") {
		t.Error("global querybox must target everyone")
	}
	personal := &QueryPost{Targets: []string{"tds-1", "tds-2"}}
	if !personal.TargetedTo("tds-1") || !personal.TargetedTo("tds-2") {
		t.Error("target not matched")
	}
	if personal.TargetedTo("tds-3") {
		t.Error("non-target matched")
	}
}

func TestDepositChecksumDetectsMutation(t *testing.T) {
	tuples := []WireTuple{
		{Tag: []byte("a"), Ciphertext: []byte{1, 2, 3}, Digest: []byte{9}},
		{Tag: []byte("b"), Ciphertext: []byte{4, 5}, Digest: []byte{8}},
	}
	d := NewDeposit("q1", "tds-00001", 1, 2, tuples)
	if !d.IntegrityOK() {
		t.Fatal("fresh envelope fails its own checksum")
	}
	if d.QueryID != "q1" || d.DeviceID != "tds-00001" || d.Attempt != 1 || d.Epoch != 2 {
		t.Fatalf("envelope metadata mangled: %+v", d)
	}

	d.Tuples[0].Ciphertext[1] ^= 0xff
	if d.IntegrityOK() {
		t.Fatal("flipped ciphertext byte not detected")
	}
	d.Tuples[0].Ciphertext[1] ^= 0xff
	if !d.IntegrityOK() {
		t.Fatal("restored envelope still rejected")
	}

	d.Sum ^= 0x1
	if d.IntegrityOK() {
		t.Fatal("flipped checksum not detected")
	}
}

func TestDepositChecksumFramesLengths(t *testing.T) {
	// Moving a byte across a tuple-field boundary keeps the byte stream
	// identical; only length framing can tell the two apart.
	a := NewDeposit("q", "", 0, 0, []WireTuple{{Tag: []byte("ab"), Ciphertext: []byte("c")}})
	b := NewDeposit("q", "", 0, 0, []WireTuple{{Tag: []byte("a"), Ciphertext: []byte("bc")}})
	if a.Sum == b.Sum {
		t.Fatal("checksum ignores field boundaries")
	}
	empty := NewDeposit("q", "", 0, 0, nil)
	one := NewDeposit("q", "", 0, 0, []WireTuple{{}})
	if empty.Sum == one.Sum {
		t.Fatal("checksum ignores tuple count")
	}
}

// fuzzCommitter is the fixed k2 committer of the sealed-deposit fixture.
func fuzzCommitter() *tdscrypto.Committer {
	return tdscrypto.NewCommitter(tdscrypto.DeriveKey(tdscrypto.Key{}, "fuzz-k2"))
}

// sealedDeposit builds a genuine committed envelope whose fields span
// empty, sub-word, padded-tail and whole-word lengths.
func sealedDeposit(c *tdscrypto.Committer) *Deposit {
	tuples := []WireTuple{
		{Tag: []byte("tag-a"), Ciphertext: []byte("ciphertext-one"), Digest: []byte("0123456789abcdef")},
		{Ciphertext: []byte("ct2")},
		{Tag: []byte{0}, Ciphertext: []byte{0xff, 0x00, 0x7f}},
	}
	d := NewDeposit("q-000042", "tds-00007", 3, 2, tuples)
	d.Commit = DepositCommitment(c, d.QueryID, d.DeviceID, d.Attempt, d.Epoch, d.Tuples)
	return d
}

// TestChecksumGoldenVectors pins the word-wise sum (vectors computed by an
// independent implementation): a device and the SSI that admits its
// deposit must agree on it, byte order and tail padding included.
func TestChecksumGoldenVectors(t *testing.T) {
	for _, tc := range []struct {
		tuples []WireTuple
		want   uint64
	}{
		{nil, 0xcbf29ce484222325},
		{[]WireTuple{{}}, 0xd94d12186c0f2fb7},
		{[]WireTuple{{Tag: []byte("ab"), Ciphertext: []byte("c")}}, 0xc64bec3552c09334},
		{[]WireTuple{{Tag: []byte("a"), Ciphertext: []byte("bc")}}, 0x21e397c0a792a395},
		// A 16-byte digest (two whole words), a 14-byte ciphertext (a word
		// and a padded tail), and fields shorter than a word.
		{sealedDeposit(fuzzCommitter()).Tuples, 0x8d6ba2dd5cd6ff66},
	} {
		if got := Checksum(tc.tuples); got != tc.want {
			t.Errorf("Checksum(%v) = %#x, want %#x", tc.tuples, got, tc.want)
		}
		if d := NewDeposit("q", "dev", 1, 1, tc.tuples); d.Sum != tc.want || !d.IntegrityOK() {
			t.Errorf("NewDeposit sealed %#x over %v, want %#x", d.Sum, tc.tuples, tc.want)
		}
	}
}

// TestChecksumDetectsEveryBitFlip flips each bit of each field of a small
// deposit — fields of 0, 1, 3, 5, 8, 14 and 16 bytes, so whole words and
// padded tails both occur — and requires the sum to move every time.
func TestChecksumDetectsEveryBitFlip(t *testing.T) {
	d := sealedDeposit(fuzzCommitter())
	d.Tuples = append(d.Tuples, WireTuple{Tag: []byte("8 bytes!")})
	d.Sum = Checksum(d.Tuples)
	flips := 0
	for i := range d.Tuples {
		w := &d.Tuples[i]
		for _, field := range [][]byte{w.Tag, w.Ciphertext, w.Digest} {
			for j := range field {
				for bit := 0; bit < 8; bit++ {
					field[j] ^= 1 << bit
					if d.IntegrityOK() {
						t.Errorf("tuple %d: bit %d of byte %d flipped undetected", i, bit, j)
					}
					field[j] ^= 1 << bit
					flips++
				}
			}
		}
	}
	if !d.IntegrityOK() || flips != 8*(5+14+16+3+1+3+8) {
		t.Errorf("restored deposit rejected, or %d flips tried", flips)
	}
}

// TestChecksumFramesEmptyFields: an empty field still occupies its place.
// Dropping one, or a whole empty tuple, or moving the bytes of a field
// into its empty neighbour, changes the sum.
func TestChecksumFramesEmptyFields(t *testing.T) {
	x := []byte("x")
	sums := map[uint64]string{}
	for name, tuples := range map[string][]WireTuple{
		"tag":         {{Tag: x}},
		"ciphertext":  {{Ciphertext: x}},
		"digest":      {{Digest: x}},
		"empty first": {{}, {Tag: x}},
		"empty last":  {{Tag: x}, {}},
		"two empty":   {{}, {}},
		"one empty":   {{}},
		"none":        nil,
		"zero byte":   {{Tag: []byte{0}}},
		"zero word":   {{Tag: make([]byte, 8)}},
		"zero word+1": {{Tag: make([]byte, 9)}},
	} {
		sum := Checksum(tuples)
		if other, dup := sums[sum]; dup {
			t.Errorf("%q and %q share the sum %#x", name, other, sum)
		}
		sums[sum] = name
	}
}

// TestDepositCommitmentGoldenVectors pins the deposit leaf's bytes under a
// fixed key (vectors generated before the leaf was streamed): devices seal
// it, the verifier recomputes it, so its encoding never changes. The
// reference builds the segment list the one-shot Commit takes.
func TestDepositCommitmentGoldenVectors(t *testing.T) {
	c := tdscrypto.NewCommitter(tdscrypto.DeriveKey(tdscrypto.Key{}, "golden"))
	tuples := []WireTuple{
		{Tag: []byte("ab"), Ciphertext: []byte("c"), Digest: []byte{9, 8, 7}},
		{Ciphertext: []byte("ciphertext-two")},
		{Tag: []byte("a"), Ciphertext: []byte("bc")},
	}
	for _, tc := range []struct {
		attempt, epoch int
		tuples         []WireTuple
		want           string
	}{
		{1, 3, nil, "7c5c7aed8a434cba00976e3433e7af80"},
		{2, 1, tuples, "3742f94971cb96622f8c86ba9a799b08"},
		{2, 1, tuples[:2], "b4b4d088ca6f265a5409579571e5f988"},
	} {
		got := DepositCommitment(c, "q-7", "tds-00042", tc.attempt, tc.epoch, tc.tuples)
		if hex.EncodeToString(got) != tc.want {
			t.Errorf("attempt %d epoch %d, %d tuples: %x, want %s",
				tc.attempt, tc.epoch, len(tc.tuples), got, tc.want)
		}
		segs := [][]byte{[]byte("q-7"), []byte("tds-00042"),
			{0, 0, 0, 0, 0, 0, 0, byte(tc.attempt)}, {0, 0, 0, 0, 0, 0, 0, byte(tc.epoch)}}
		for _, w := range tc.tuples {
			segs = append(segs, w.Tag, w.Ciphertext, w.Digest)
		}
		if ref := c.Commit("deposit", segs...); !bytes.Equal(got, ref) {
			t.Errorf("streamed leaf %x differs from Commit over its segments %x", got, ref)
		}
	}
}

// TestDepositCommitmentAllocBudget: a deposit leaf allocates the
// commitment it returns and nothing else — the stream handle stays in
// DepositCommitment's frame, the IDs, the domain and the counters are
// absorbed where they are, and the MAC state is the committer's pooled
// one — whatever the deposit holds. A pooled state a GC or the race
// detector dropped is rebuilt at some ten allocations, so each size takes
// the least of twenty single calls.
func TestDepositCommitmentAllocBudget(t *testing.T) {
	c := tdscrypto.NewCommitter(tdscrypto.DeriveKey(tdscrypto.Key{}, "allocs"))
	for _, n := range []int{1, 2, 300} {
		tuples := make([]WireTuple, n)
		for i := range tuples {
			tuples[i] = WireTuple{Ciphertext: make([]byte, 62), Digest: make([]byte, 16)}
		}
		least := math.Inf(1)
		for try := 0; try < 20; try++ {
			least = min(least, testing.AllocsPerRun(1, func() {
				DepositCommitment(c, "q-000007", "tds-00042", 1, 1, tuples)
			}))
		}
		if least > 1 {
			t.Errorf("DepositCommitment over %d tuples allocates %v times, want 1", n, least)
		}
	}
}
