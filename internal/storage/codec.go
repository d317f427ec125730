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
func DecodeValue(b []byte) (Value, int, error) { return decodeValue(b, nil) }

// decodeValue is DecodeValue with text values looked up in, and added to,
// strs when it is non-nil.
func decodeValue(b []byte, strs map[string]string) (Value, int, error) {
	if len(b) == 0 {
		return Null(), 0, fmt.Errorf("storage: empty value encoding")
	}
	kind := Kind(b[0])
	rest := b[1:]
	switch kind {
	case KindNull:
		return Null(), 1, nil
	case KindInt:
		i, n := binary.Varint(rest)
		if n <= 0 {
			return Null(), 0, fmt.Errorf("storage: bad varint")
		}
		return Int(i), 1 + n, nil
	case KindFloat:
		if len(rest) < 8 {
			return Null(), 0, fmt.Errorf("storage: short float")
		}
		f := math.Float64frombits(binary.BigEndian.Uint64(rest[:8]))
		return Float(f), 9, nil
	case KindString:
		l, n := binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest)-n) < l {
			return Null(), 0, fmt.Errorf("storage: bad string length")
		}
		str, ok := strs[string(rest[n:n+int(l)])]
		if !ok {
			str = string(rest[n : n+int(l)])
			if strs != nil {
				strs[str] = str
			}
		}
		return Str(str), 1 + n + int(l), nil
	case KindBool:
		if len(rest) < 1 {
			return Null(), 0, fmt.Errorf("storage: short bool")
		}
		return Bool(rest[0] != 0), 2, nil
	default:
		return Null(), 0, fmt.Errorf("storage: unknown kind byte %d", b[0])
	}
}

// EncodedValueSize returns the exact number of bytes AppendValue emits
// for v, so encoders can size buffers up front instead of growing them.
func EncodedValueSize(v Value) int {
	switch v.kind {
	case KindInt:
		return 1 + uvarintLen(uint64(v.i)<<1^uint64(v.i>>63)) // zig-zag
	case KindFloat:
		return 1 + 8
	case KindString:
		return 1 + uvarintLen(uint64(len(v.s))) + len(v.s)
	case KindBool:
		return 1 + 1
	default: // KindNull
		return 1
	}
}

// EncodedRowSize returns the exact number of bytes AppendRow emits for r.
func EncodedRowSize(r Row) int {
	n := uvarintLen(uint64(len(r)))
	for _, v := range r {
		n += EncodedValueSize(v)
	}
	return n
}

// uvarintLen is the encoded length of a uvarint.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// AppendRow appends the encoding of r to dst and returns the result.
func AppendRow(dst []byte, r Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	for _, v := range r {
		dst = AppendValue(dst, v)
	}
	return dst
}

// EncodeRow encodes a row into a fresh, exactly sized buffer.
func EncodeRow(r Row) []byte { return AppendRow(make([]byte, 0, EncodedRowSize(r)), r) }

// DecodeRow decodes one row from b and returns it with the number of bytes
// consumed.
func DecodeRow(b []byte) (Row, int, error) { return new(RowDecoder).Decode(b) }

// RowDecoder decodes a run of rows into one reused Row, sharing equal text
// values, so n rows over d distinct texts allocate O(d) and not O(n). The
// Row a Decode returns is overwritten by the next; its values — immutable
// like any Value — may be kept. The zero RowDecoder is ready to use.
type RowDecoder struct {
	row  Row
	strs map[string]string
}

// Decode is DecodeRow into the decoder's Row.
func (d *RowDecoder) Decode(b []byte) (Row, int, error) {
	n, used := binary.Uvarint(b)
	if used <= 0 {
		return nil, 0, fmt.Errorf("storage: bad row header")
	}
	if n > uint64(len(b)) {
		return nil, 0, fmt.Errorf("storage: implausible row arity %d", n)
	}
	if d.row == nil {
		d.row = make(Row, 0, n)
	} else if d.strs == nil {
		d.strs = make(map[string]string) // a second row: a run worth sharing over
	}
	d.row = d.row[:0]
	off := used
	for i := uint64(0); i < n; i++ {
		v, c, err := decodeValue(b[off:], d.strs)
		if err != nil {
			return nil, 0, fmt.Errorf("storage: value %d: %w", i, err)
		}
		d.row = append(d.row, v)
		off += c
	}
	return d.row, off, nil
}
