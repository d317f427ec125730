package storage

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The wire format for values and rows is a compact, deterministic binary
// encoding. Determinism matters: Det_Enc derives its synthetic nonce from
// the plaintext bytes, so two equal values must serialize identically.
//
//	value  := kind:uint8 payload
//	int    -> varint (zig-zag)
//	float  -> 8 bytes big endian IEEE-754
//	string -> uvarint length + bytes
//	bool   -> 1 byte
//	row    := uvarint n + n values

// AppendValue appends the encoding of v to dst and returns the result.
func AppendValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindInt:
		dst = binary.AppendVarint(dst, v.i)
	case KindFloat:
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], math.Float64bits(v.f))
		dst = append(dst, buf[:]...)
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		dst = append(dst, v.s...)
	case KindBool:
		if v.b {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// DecodeValue decodes one value from b and returns it with the number of
// bytes consumed.
func DecodeValue(b []byte) (Value, int, error) {
	var v Value
	n, err := decodeValue(&v, b, nil, false)
	return v, n, err
}

// decodeValue is DecodeValue into *v, with text values read from texts,
// and a text texts lacks added to it when add is set. *v may hold an
// earlier value: its text is written only when it changes, so a number
// decoded over a number writes no pointer, and pays no write barrier while
// the garbage collector runs.
func decodeValue(v *Value, b []byte, texts Texts, add bool) (int, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("storage: empty value encoding")
	}
	kind, rest, n := Kind(b[0]), b[1:], 1
	var i int64
	var f float64
	var str string
	switch kind {
	case KindNull:
	case KindInt:
		var c int
		if i, c = binary.Varint(rest); c <= 0 {
			return 0, fmt.Errorf("storage: bad varint")
		}
		n += c
	case KindFloat:
		if len(rest) < 8 {
			return 0, fmt.Errorf("storage: short float")
		}
		f, n = math.Float64frombits(binary.BigEndian.Uint64(rest[:8])), 9
	case KindString:
		l, c := binary.Uvarint(rest)
		if c <= 0 || uint64(len(rest)-c) < l {
			return 0, fmt.Errorf("storage: bad string length")
		}
		var ok bool
		if str, ok = texts[string(rest[c:c+int(l)])]; !ok {
			str = string(rest[c : c+int(l)])
			if add {
				texts[str] = str
			}
		}
		n += c + int(l)
	case KindBool:
		if len(rest) < 1 {
			return 0, fmt.Errorf("storage: short bool")
		}
		n++
	default:
		return 0, fmt.Errorf("storage: unknown kind byte %d", b[0])
	}
	v.kind, v.i, v.f, v.b = kind, i, f, kind == KindBool && rest[0] != 0
	if v.s != str {
		v.s = str
	}
	return n, nil
}

// AppendRow appends the encoding of r to dst and returns the result.
func AppendRow(dst []byte, r Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	for _, v := range r {
		dst = AppendValue(dst, v)
	}
	return dst
}

// DecodeRow decodes one row from b and returns it with the number of bytes
// consumed.
func DecodeRow(b []byte) (Row, int, error) { return new(RowDecoder).Decode(b) }

// RowDecoder decodes a run of rows into one reused Row, sharing equal text
// values, so n rows over d distinct texts allocate O(d) and not O(n). The
// Row a Decode returns is overwritten by the next; its values — immutable
// like any Value — may be kept. The zero RowDecoder is ready to use.
type RowDecoder struct {
	row  Row
	strs Texts
}

// Decode is DecodeRow into the decoder's Row.
func (d *RowDecoder) Decode(b []byte) (Row, int, error) {
	if d.row == nil {
		if n, used := binary.Uvarint(b); used > 0 && n <= uint64(len(b)) {
			d.row = make(Row, 0, n)
		}
	} else if d.strs == nil {
		d.strs = make(Texts) // a second row: a run worth sharing over
	}
	row, off, err := appendRow(d.row[:0], b, d.strs, d.strs != nil)
	if err != nil {
		return nil, 0, err
	}
	d.row = row
	return row, off, nil
}

// appendRow decodes one row from b onto vals, its texts read through
// decodeValue, and returns vals with the number of bytes consumed.
func appendRow(vals []Value, b []byte, texts Texts, add bool) ([]Value, int, error) {
	n, off := binary.Uvarint(b)
	if off <= 0 {
		return vals, 0, fmt.Errorf("storage: bad row header")
	}
	if n > uint64(len(b)) {
		return vals, 0, fmt.Errorf("storage: implausible row arity %d", n)
	}
	for i := uint64(0); i < n; i++ {
		if len(vals) < cap(vals) {
			vals = vals[:len(vals)+1] // decodeValue overwrites what it holds
		} else {
			vals = append(vals, Value{})
		}
		c, err := decodeValue(&vals[len(vals)-1], b[off:], texts, add)
		if err != nil {
			return vals[:len(vals)-1], 0, fmt.Errorf("storage: value %d: %w", i, err)
		}
		off += c
	}
	return vals, off, nil
}
