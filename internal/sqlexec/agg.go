package sqlexec

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/trustedcells/tcq/internal/sqlparse"
	"github.com/trustedcells/tcq/internal/storage"
)

// AggState is a mergeable partial aggregate — the unit of work of the
// aggregation phase. Any TDS can Add raw inputs, merge another TDS's
// encoded partial state (the ⊕ operator of the S_Agg algorithm, Fig. 4)
// and finally produce the aggregate Result.
//
// States serialize to a deterministic byte encoding so they can be
// encrypted with k2 and relayed through the SSI between aggregation steps.
type AggState interface {
	// Add folds one raw input value into the state. NULL inputs are
	// ignored except by COUNT(*).
	Add(v storage.Value) error
	// Result returns the aggregate value (NULL over an empty input).
	Result() storage.Value
	// AppendEncode appends the wire encoding of the state to dst.
	AppendEncode(dst []byte) []byte
	// decodeMerge is ⊕: it folds the state of the same spec encoded at
	// the head of b into this one, in place, and returns the bytes read —
	// 0 when they do not decode, all of them when they decode but do not
	// fold in (MIN/MAX across kinds).
	decodeMerge(b []byte) (int, error)
}

// stateSlabs carves empty states from slabs, one per state type; a MEDIAN
// or DISTINCT state keeps what it grew, emptied here.
type stateSlabs struct {
	counts    slab[countState]
	sums      slab[sumState]
	avgs      slab[avgState]
	exts      slab[extremumState]
	medians   slab[medianState]
	vars      slab[varianceState]
	distincts slab[distinctState]
	intern    map[string]string // DISTINCT's keys, interned under the accumulator's plan
}

func (s *stateSlabs) reset() {
	s.counts.reset()
	s.sums.reset()
	s.avgs.reset()
	s.exts.reset()
	s.medians.reset()
	s.vars.reset()
	s.distincts.reset()
}

// next returns an empty state for spec. DISTINCT wraps any function with
// value de-duplication (the paper's holistic case — COUNT DISTINCT is what
// the flagship query uses in HAVING).
func (s *stateSlabs) next(spec AggSpec) AggState {
	var st AggState
	switch spec.Func {
	case sqlparse.AggCount:
		c := &s.counts.carve(1)[0]
		c.star, st = spec.Star, c
	case sqlparse.AggSum:
		st = &s.sums.carve(1)[0]
	case sqlparse.AggAvg:
		st = &s.avgs.carve(1)[0]
	case sqlparse.AggMin, sqlparse.AggMax:
		e := &s.exts.carve(1)[0]
		e.min, st = spec.Func == sqlparse.AggMin, e
	case sqlparse.AggMedian:
		m := &s.medians.take(1)[0]
		m.vals, st = m.vals[:0], m
	case sqlparse.AggVar, sqlparse.AggStddev:
		v := &s.vars.carve(1)[0]
		v.stddev, st = spec.Func == sqlparse.AggStddev, v
	default:
		panic(fmt.Sprintf("sqlexec: unknown aggregate %q", spec.Func))
	}
	if !spec.Distinct {
		return st
	}
	d := &s.distincts.take(1)[0]
	if d.seen == nil {
		d.seen = make(map[string]storage.Value)
	}
	clear(d.seen)
	d.inner, d.intern = st, s.intern
	return d
}

// ---- COUNT ----

type countState struct {
	star bool
	n    int64
}

func (s *countState) Add(v storage.Value) error {
	if s.star || !v.IsNull() {
		s.n++
	}
	return nil
}

func (s *countState) Result() storage.Value { return storage.Int(s.n) }

func (s *countState) AppendEncode(dst []byte) []byte {
	return binary.AppendVarint(dst, s.n)
}

func (s *countState) decodeMerge(b []byte) (int, error) {
	n, used := binary.Varint(b)
	if used <= 0 {
		return 0, fmt.Errorf("sqlexec: bad COUNT state")
	}
	s.n += n
	return used, nil
}

// ---- SUM ----

// sumState keeps both an exact integer sum and a float sum; the result is
// integral while every input was integral, as in SQL.
type sumState struct {
	isum     int64
	fsum     float64
	anyFloat bool
	n        int64
}

func (s *sumState) Add(v storage.Value) error {
	if v.IsNull() {
		return nil
	}
	switch v.Kind() {
	case storage.KindInt:
		i, _ := v.AsInt()
		s.isum += i
		s.fsum += float64(i)
	case storage.KindFloat:
		f, _ := v.AsFloat()
		s.anyFloat = true
		s.fsum += f
	default:
		return fmt.Errorf("sqlexec: SUM over %s", v.Kind())
	}
	s.n++
	return nil
}

func (s *sumState) Result() storage.Value {
	switch {
	case s.n == 0:
		return storage.Null()
	case s.anyFloat:
		return storage.Float(s.fsum)
	default:
		return storage.Int(s.isum)
	}
}

func (s *sumState) AppendEncode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(binary.AppendVarint(dst, s.isum), math.Float64bits(s.fsum))
	if s.anyFloat {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return binary.AppendVarint(dst, s.n)
}

func (s *sumState) decodeMerge(b []byte) (int, error) {
	isum, u1 := binary.Varint(b)
	if u1 <= 0 || len(b) < u1+9 {
		return 0, fmt.Errorf("sqlexec: bad SUM state")
	}
	n, u2 := binary.Varint(b[u1+9:])
	if u2 <= 0 {
		return 0, fmt.Errorf("sqlexec: bad SUM count")
	}
	s.isum += isum
	s.fsum += math.Float64frombits(binary.BigEndian.Uint64(b[u1 : u1+8]))
	s.anyFloat = s.anyFloat || b[u1+8] != 0
	s.n += n
	return u1 + 9 + u2, nil
}

// ---- AVG ----

// avgState is the canonical algebraic aggregate: (sum, count) pairs merge
// exactly even though AVG itself does not.
type avgState struct {
	sum float64
	n   int64
}

func (s *avgState) Add(v storage.Value) error {
	if v.IsNull() {
		return nil
	}
	f, err := v.AsFloat()
	if err != nil {
		return fmt.Errorf("sqlexec: AVG: %w", err)
	}
	s.sum += f
	s.n++
	return nil
}

func (s *avgState) Result() storage.Value {
	if s.n == 0 {
		return storage.Null()
	}
	return storage.Float(s.sum / float64(s.n))
}

func (s *avgState) AppendEncode(dst []byte) []byte {
	return binary.AppendVarint(binary.BigEndian.AppendUint64(dst, math.Float64bits(s.sum)), s.n)
}

func (s *avgState) decodeMerge(b []byte) (int, error) {
	if len(b) < 9 {
		return 0, fmt.Errorf("sqlexec: bad AVG state")
	}
	n, u := binary.Varint(b[8:])
	if u <= 0 {
		return 0, fmt.Errorf("sqlexec: bad AVG count")
	}
	s.sum += math.Float64frombits(binary.BigEndian.Uint64(b[:8]))
	s.n += n
	return 8 + u, nil
}

// ---- MIN / MAX ----

type extremumState struct {
	min bool
	cur storage.Value // NULL until first input
}

func (s *extremumState) Add(v storage.Value) error {
	if v.IsNull() {
		return nil
	}
	if s.cur.IsNull() {
		s.cur = v
		return nil
	}
	c, err := storage.Compare(v, s.cur)
	if err != nil {
		return fmt.Errorf("sqlexec: MIN/MAX: %w", err)
	}
	if (s.min && c < 0) || (!s.min && c > 0) {
		s.cur = v
	}
	return nil
}

func (s *extremumState) Result() storage.Value { return s.cur }

func (s *extremumState) AppendEncode(dst []byte) []byte {
	return storage.AppendValue(dst, s.cur)
}

func (s *extremumState) decodeMerge(b []byte) (int, error) {
	v, n, err := storage.DecodeValue(b)
	if err != nil {
		return 0, fmt.Errorf("sqlexec: bad MIN/MAX state: %w", err)
	}
	return n, s.Add(v)
}

// ---- MEDIAN (holistic) ----

// medianState is a holistic aggregate: it must retain every input. This is
// exactly the case the paper flags as straining TDS RAM in S_Agg — the
// partial aggregate structure grows with the data, not with G.
type medianState struct {
	vals []float64
}

func (s *medianState) Add(v storage.Value) error {
	if v.IsNull() {
		return nil
	}
	f, err := v.AsFloat()
	if err != nil {
		return fmt.Errorf("sqlexec: MEDIAN: %w", err)
	}
	s.vals = append(s.vals, f)
	return nil
}

func (s *medianState) Result() storage.Value {
	if len(s.vals) == 0 {
		return storage.Null()
	}
	sorted := append([]float64(nil), s.vals...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return storage.Float(sorted[mid])
	}
	return storage.Float((sorted[mid-1] + sorted[mid]) / 2)
}

func (s *medianState) AppendEncode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s.vals)))
	for _, f := range s.vals {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

func (s *medianState) decodeMerge(b []byte) (int, error) {
	n, u := binary.Uvarint(b)
	if u <= 0 || uint64(len(b)-u) < n*8 {
		return 0, fmt.Errorf("sqlexec: bad MEDIAN state")
	}
	off := u
	for range n {
		s.vals = append(s.vals, math.Float64frombits(binary.BigEndian.Uint64(b[off:off+8])))
		off += 8
	}
	return off, nil
}

// ---- VARIANCE / STDDEV (algebraic) ----

// varianceState keeps (n, Σx, Σx²): the canonical algebraic decomposition
// of population variance, exactly mergeable like AVG's (sum, count).
// stddev selects the square root at Result time.
type varianceState struct {
	stddev bool
	n      int64
	sum    float64
	sumSq  float64
}

func (s *varianceState) Add(v storage.Value) error {
	if v.IsNull() {
		return nil
	}
	f, err := v.AsFloat()
	if err != nil {
		return fmt.Errorf("sqlexec: VARIANCE: %w", err)
	}
	s.n++
	s.sum += f
	s.sumSq += f * f
	return nil
}

func (s *varianceState) Result() storage.Value {
	if s.n == 0 {
		return storage.Null()
	}
	mean := s.sum / float64(s.n)
	v := s.sumSq/float64(s.n) - mean*mean
	if v < 0 {
		v = 0 // floating-point cancellation guard
	}
	if s.stddev {
		return storage.Float(math.Sqrt(v))
	}
	return storage.Float(v)
}

func (s *varianceState) AppendEncode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(binary.AppendVarint(dst, s.n), math.Float64bits(s.sum))
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(s.sumSq))
}

func (s *varianceState) decodeMerge(b []byte) (int, error) {
	n, u := binary.Varint(b)
	if u <= 0 || len(b) < u+16 {
		return 0, fmt.Errorf("sqlexec: bad VARIANCE state")
	}
	s.n += n
	s.sum += math.Float64frombits(binary.BigEndian.Uint64(b[u : u+8]))
	s.sumSq += math.Float64frombits(binary.BigEndian.Uint64(b[u+8 : u+16]))
	return u + 16, nil
}

// ---- DISTINCT wrapper (holistic) ----

// distinctState de-duplicates inputs before feeding the wrapped state; a
// merge feeds it only the values it has not seen, keeping DISTINCT exact
// across arbitrary merge trees. A key string is made once per plan.
type distinctState struct {
	inner  AggState
	seen   map[string]storage.Value
	intern map[string]string
	key    []byte
	keys   []string // AppendEncode's
}

func (s *distinctState) Add(v storage.Value) error {
	if v.IsNull() {
		return nil
	}
	s.key = v.AppendKey(s.key[:0])
	if _, dup := s.seen[string(s.key)]; dup {
		return nil
	}
	k, ok := s.intern[string(s.key)]
	if !ok {
		k = string(s.key)
		s.intern[k] = k
	}
	s.seen[k] = v
	return s.inner.Add(v)
}

func (s *distinctState) Result() storage.Value { return s.inner.Result() }

func (s *distinctState) AppendEncode(dst []byte) []byte {
	s.keys = s.keys[:0]
	for k := range s.seen {
		s.keys = append(s.keys, k)
	}
	slices.Sort(s.keys) // deterministic encoding
	dst = binary.AppendUvarint(dst, uint64(len(s.keys)))
	for _, k := range s.keys {
		dst = storage.AppendValue(dst, s.seen[k])
	}
	return dst
}

func (s *distinctState) decodeMerge(b []byte) (int, error) {
	n, u := binary.Uvarint(b)
	if u <= 0 || n > uint64(len(b)) {
		return 0, fmt.Errorf("sqlexec: bad DISTINCT state")
	}
	off := u
	for i := uint64(0); i < n; i++ {
		v, c, err := storage.DecodeValue(b[off:])
		if err != nil {
			return 0, fmt.Errorf("sqlexec: DISTINCT value %d: %w", i, err)
		}
		off += c
		if err := s.Add(v); err != nil {
			return 0, err
		}
	}
	return off, nil
}
