package storage

import "testing"

// FuzzDecodeRow drives the row decoder with arbitrary bytes: it must never
// panic, and anything it accepts must re-encode to a decodable form with
// an identical grouping key (the protocols rely on that stability).
func FuzzDecodeRow(f *testing.F) {
	f.Add(EncodeRow(Row{Int(1), Str("a"), Float(2.5), Bool(true), Null()}))
	f.Add(EncodeRow(Row{}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	f.Add([]byte{1, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		row, n, err := DecodeRow(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		re := EncodeRow(row)
		row2, _, err := DecodeRow(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if row.Key() != row2.Key() {
			t.Fatalf("key changed across round trip: %q vs %q", row.Key(), row2.Key())
		}
	})
}
