package storage

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleRows() []Row {
	return []Row{
		{},
		{Null()},
		{Int(0), Int(-1), Int(math.MaxInt64), Int(math.MinInt64)},
		{Float(0), Float(-2.5), Float(math.MaxFloat64), Float(math.SmallestNonzeroFloat64)},
		{Str(""), Str("hello"), Str("héllo wörld"), Str(string([]byte{0, 1, 2, 255}))},
		{Bool(true), Bool(false)},
		{Int(1), Float(2.5), Str("mixed"), Bool(true), Null()},
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	for i, row := range sampleRows() {
		enc := EncodeRow(row)
		dec, n, err := DecodeRow(enc)
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if n != len(enc) {
			t.Errorf("row %d: consumed %d of %d bytes", i, n, len(enc))
		}
		if !rowsEqual(row, dec) {
			t.Errorf("row %d: got %v, want %v", i, dec, row)
		}
	}
}

func rowsEqual(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind() != b[i].Kind() {
			return false
		}
		if a[i].IsNull() {
			continue
		}
		// Bit-exact float comparison via string key plus Kind check above.
		if a[i].Kind() == KindFloat {
			af, _ := a[i].AsFloat()
			bf, _ := b[i].AsFloat()
			if math.Float64bits(af) != math.Float64bits(bf) {
				return false
			}
			continue
		}
		if !Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestDecodeCorruption(t *testing.T) {
	enc := EncodeRow(Row{Int(1), Str("abc"), Float(2.5)})
	// Truncations at every byte position must fail or consume fewer bytes,
	// never panic.
	for cut := 0; cut < len(enc); cut++ {
		_, n, err := DecodeRow(enc[:cut])
		if err == nil && n > cut {
			t.Errorf("cut %d: consumed %d > %d available", cut, n, cut)
		}
	}
	// Bogus kind byte.
	if _, _, err := DecodeValue([]byte{0xEE}); err == nil {
		t.Error("unknown kind must fail")
	}
	if _, _, err := DecodeValue(nil); err == nil {
		t.Error("empty input must fail")
	}
	giant := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}
	if _, _, err := DecodeRow(giant); err == nil {
		t.Error("giant row header must fail")
	}
}

// Property: encoding is deterministic — equal rows produce identical bytes.
// Det_Enc's synthetic nonce depends on this.
func TestEncodingDeterministic(t *testing.T) {
	f := func(i int64, s string, b bool) bool {
		r1 := Row{Int(i), Str(s), Bool(b)}
		r2 := Row{Int(i), Str(s), Bool(b)}
		return bytes.Equal(EncodeRow(r1), EncodeRow(r2))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: random rows round trip through the codec.
func TestRowCodecQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randomValue := func() Value {
		switch rng.Intn(5) {
		case 0:
			return Null()
		case 1:
			return Int(rng.Int63() - rng.Int63())
		case 2:
			return Float(rng.NormFloat64() * 1e6)
		case 3:
			n := rng.Intn(40)
			b := make([]byte, n)
			rng.Read(b)
			return Str(string(b))
		default:
			return Bool(rng.Intn(2) == 0)
		}
	}
	for trial := 0; trial < 300; trial++ {
		row := make(Row, rng.Intn(12))
		for i := range row {
			row[i] = randomValue()
		}
		enc := EncodeRow(row)
		dec, n, err := DecodeRow(enc)
		if err != nil || n != len(enc) || !rowsEqual(row, dec) {
			t.Fatalf("trial %d: row %v enc %x dec %v err %v", trial, row, enc, dec, err)
		}
	}
}

// Property: value encodings are self-delimiting — concatenations decode to
// the original sequence.
func TestValueSelfDelimiting(t *testing.T) {
	f := func(a int64, s string) bool {
		var buf []byte
		vals := []Value{Int(a), Str(s), Bool(a%2 == 0), Null(), Float(float64(a) / 3)}
		for _, v := range vals {
			buf = AppendValue(buf, v)
		}
		off := 0
		for _, want := range vals {
			got, n, err := DecodeValue(buf[off:])
			if err != nil {
				return false
			}
			if got.Kind() != want.Kind() {
				return false
			}
			if !want.IsNull() && !Equal(got, want) {
				return false
			}
			off += n
		}
		return off == len(buf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRowKeyStability(t *testing.T) {
	r := Row{Int(1), Str("a"), Null()}
	if r.Key() != r.Clone().Key() {
		t.Error("clone must share key")
	}
	r2 := Row{Int(1), Str("a"), Int(0)}
	if r.Key() == r2.Key() {
		t.Error("different rows must not share key")
	}
	if !reflect.DeepEqual(r, r.Clone()) {
		t.Error("clone must deep-equal original")
	}
}

func TestRowStringRendering(t *testing.T) {
	r := Row{Int(1), Str("a"), Null()}
	if got := r.String(); got != "(1, a, NULL)" {
		t.Errorf("String() = %q", got)
	}
}

// TestRowDecoderReusesRowSharesText: a RowDecoder hands every row back in
// the same backing array and stops allocating once it has seen a run's
// distinct texts; values copied out of a decoded row survive the next.
func TestRowDecoderReusesRowSharesText(t *testing.T) {
	encs := [][]byte{
		EncodeRow(Row{Str("Paris"), Float(1.5), Null()}),
		EncodeRow(Row{Str("Lyon"), Int(2), Bool(true)}),
		EncodeRow(Row{Str("Paris"), Float(3.5), Str("")}),
	}
	var dec RowDecoder
	var kept []Value
	for i, enc := range encs {
		row, n, err := dec.Decode(enc)
		want, _, _ := DecodeRow(enc)
		if err != nil || n != len(enc) || row.Key() != want.Key() {
			t.Fatalf("row %d = %v, %d, %v; want %v", i, row, n, err, want)
		}
		if i > 0 && &row[0] != &dec.row[0] {
			t.Errorf("row %d was not decoded in place", i)
		}
		kept = append(kept, row[0])
	}
	if kept[0].AsString() != "Paris" || kept[1].AsString() != "Lyon" || kept[2].AsString() != "Paris" {
		t.Errorf("values kept across decodes = %v", kept)
	}
	if n := testing.AllocsPerRun(50, func() {
		for _, enc := range encs {
			if _, _, err := dec.Decode(enc); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("decoding rows of known texts allocates %v times", n)
	}
	// A failed decode leaves the decoder usable.
	if _, _, err := dec.Decode(encs[0][:3]); err == nil {
		t.Error("truncated row must fail")
	}
	if row, _, err := dec.Decode(encs[1]); err != nil || row[0].AsString() != "Lyon" {
		t.Errorf("decode after an error = %v, %v", row, err)
	}
}
