package sqlexec

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"github.com/trustedcells/tcq/internal/storage"
)

// Group is one GROUP BY bucket with its partial aggregate states.
type Group struct {
	Values storage.Row // grouping attribute values (A_G)
	States []AggState  // one per Plan.Aggs entry
}

// Accumulator is the "partial aggregate" data structure each TDS maintains
// during the aggregation phase (Section 4.2). Every collection tuple read
// from a partition contributes to the current value of the aggregate
// functions of the group it belongs to. The structure's size grows with
// the number of distinct groups in the partition — the paper's RAM
// limiting factor for S_Agg. Like the token's fixed RAM, one accumulator
// serves partition after partition (Reset).
type Accumulator struct {
	plan   *Plan
	groups map[string]*Group
	keys   map[string]string  // the group and DISTINCT keys interned under plan
	key    []byte             // scratch for group lookups
	enc    []byte             // Encode's buffer
	sorted []string           // Groups' keys
	order  []*Group           // Groups' result
	dec    storage.RowDecoder // MergeEncoded's grouping values
	// A new group is carved from these slabs.
	slab   slab[Group]
	vals   slab[storage.Value]
	states slab[AggState]
	stateSlabs
}

// NewAccumulator returns an empty accumulator for the plan.
func NewAccumulator(plan *Plan) *Accumulator {
	a := new(Accumulator)
	a.Reset(plan)
	return a
}

// Reset empties the accumulator (a zero one too) for a fold under plan,
// keeping its slabs and buffers and, for the same plan, its map and keys:
// a fold over no more groups than the last allocates nothing. Another plan
// (another query) starts new tables, so none grows across queries.
// Nothing handed out before a Reset may be used after it.
func (a *Accumulator) Reset(plan *Plan) {
	if plan != a.plan {
		a.plan, a.groups, a.keys, a.dec = plan, make(map[string]*Group), make(map[string]string), storage.RowDecoder{}
		a.intern = a.keys
	}
	clear(a.groups)
	a.slab.reset()
	a.vals.reset()
	a.states.reset()
	a.stateSlabs.reset()
}

// NumGroups returns the number of distinct groups accumulated so far.
func (a *Accumulator) NumGroups() int { return len(a.groups) }

// group returns (creating if needed) the bucket for the grouping values.
// The lookup goes through the scratch key. A new group's key string is
// interned, allocated once per plan; its values, states and the Group
// itself are carved from the accumulator's slabs.
func (a *Accumulator) group(groupVals storage.Row) *Group {
	a.key = groupVals.AppendKey(a.key[:0])
	g, ok := a.groups[string(a.key)]
	if !ok {
		k, ok := a.keys[string(a.key)]
		if !ok {
			k = string(a.key)
			a.keys[k] = k
		}
		g = &a.slab.carve(1)[0]
		g.Values = a.vals.carve(len(groupVals))
		copy(g.Values, groupVals)
		g.States = a.states.carve(len(a.plan.Aggs))
		for i, spec := range a.plan.Aggs {
			g.States[i] = a.next(spec)
		}
		a.groups[k] = g
	}
	return g
}

// slab carves zeroed elements from chunks: n cost O(log n) allocations,
// and after a reset, none while no more than the last round's.
type slab[T any] struct {
	buf  []T
	used int // elements carved since the reset
}

// carve returns n zero elements. A short chunk is replaced by one as long
// as all carved since the reset, so a slab doubles; what it handed out
// stays where it is, and reset replaces it by one holding them all.
func (s *slab[T]) carve(n int) []T {
	r := s.take(n)
	clear(r) // a reset slab hands out what it handed out before
	return r
}

// take is carve without the clearing: the elements are as the last round
// left them, for a state that keeps what it grew to empty itself.
func (s *slab[T]) take(n int) []T {
	if cap(s.buf)-len(s.buf) < n {
		s.buf = make([]T, 0, max(n, s.used))
	}
	b := s.buf
	s.buf, s.used = b[:len(b)+n], s.used+n
	return b[len(b) : len(b)+n : len(b)+n]
}

func (s *slab[T]) reset() {
	if cap(s.buf) < s.used {
		s.buf = make([]T, 0, s.used)
	}
	s.buf, s.used = s.buf[:0], 0
}

// AddCollectionRow folds one collection tuple — the raw unit produced in
// the collection phase: grouping values followed by one input value per
// aggregate.
func (a *Accumulator) AddCollectionRow(row storage.Row) error {
	ng := len(a.plan.GroupCols)
	if len(row) != a.plan.CollectionWidth() {
		return fmt.Errorf("sqlexec: collection tuple arity %d, want %d",
			len(row), a.plan.CollectionWidth())
	}
	g := a.group(row[:ng])
	for i := range a.plan.Aggs {
		if err := g.States[i].Add(row[ng+i]); err != nil {
			return err
		}
	}
	return nil
}

// Groups returns the buckets sorted by group key (deterministic order), in
// a slice the next call overwrites.
func (a *Accumulator) Groups() []*Group {
	a.sorted = a.sorted[:0]
	for k := range a.groups {
		a.sorted = append(a.sorted, k)
	}
	sort.Strings(a.sorted)
	a.order = a.order[:0]
	for _, k := range a.sorted {
		a.order = append(a.order, a.groups[k])
	}
	return a.order
}

// Encode serializes the whole partial aggregation:
//
//	uvarint #groups, then per group: group row + each state's encoding.
//
// The encoding is deterministic (groups sorted by key), so Det_Enc over a
// partial aggregation is well-defined. The bytes are the accumulator's
// buffer, overwritten by the next Encode.
func (a *Accumulator) Encode() []byte {
	a.enc = binary.AppendUvarint(a.enc[:0], uint64(len(a.groups)))
	for _, g := range a.Groups() {
		a.enc = storage.AppendRow(a.enc, g.Values)
		for _, st := range g.States {
			a.enc = st.AppendEncode(a.enc)
		}
	}
	return a.enc
}

// AppendGroup appends a single group to dst in the per-group layout of
// Encode, so per-group emit loops (the noise and histogram protocols ship
// one group, or bucket, at a time) can reuse one scratch buffer.
func AppendGroup(dst []byte, _ *Plan, g *Group) []byte {
	dst = binary.AppendUvarint(dst, 1)
	dst = storage.AppendRow(dst, g.Values)
	for _, st := range g.States {
		dst = st.AppendEncode(dst)
	}
	return dst
}

// MergeEncoded decodes a serialized partial aggregation and merges it:
// the grouping values through the accumulator's one decoder, each state
// straight into its group's own.
func (a *Accumulator) MergeEncoded(b []byte) error {
	n, used := binary.Uvarint(b)
	if used <= 0 {
		return fmt.Errorf("sqlexec: bad partial aggregation header")
	}
	if n > uint64(len(b)) {
		return fmt.Errorf("sqlexec: implausible group count %d", n)
	}
	off := used
	for i := uint64(0); i < n; i++ {
		groupVals, c, err := a.dec.Decode(b[off:])
		if err != nil {
			return fmt.Errorf("sqlexec: group %d values: %w", i, err)
		}
		if len(groupVals) != len(a.plan.GroupCols) {
			return fmt.Errorf("sqlexec: group %d arity %d, want %d",
				i, len(groupVals), len(a.plan.GroupCols))
		}
		off += c
		for j, st := range a.group(groupVals).States {
			switch c, err := st.decodeMerge(b[off:]); {
			case err == nil:
				off += c
			case c == 0:
				return fmt.Errorf("sqlexec: group %d state %d: %w", i, j, err)
			default:
				return err // MIN/MAX across kinds: the fold's own error
			}
		}
	}
	if off != len(b) {
		return fmt.Errorf("sqlexec: %d trailing bytes in partial aggregation", len(b)-off)
	}
	return nil
}

// Result is the final output of a query.
type Result struct {
	Columns []string
	Rows    []storage.Row
}

// String renders the result as an aligned text table for CLI output.
func (r *Result) String() string {
	out := strings.Join(r.Columns, " | ") + "\n"
	for _, row := range r.Rows {
		for i, v := range row {
			if i > 0 {
				out += " | "
			}
			out += v.AsString()
		}
		out += "\n"
	}
	return out
}

// Finalize applies HAVING and evaluates the SELECT list over every group —
// the filtering phase work of the generic protocol (step 11 eliminates
// groups that do not satisfy HAVING) — through the plan's compiled
// post-grouping form.
func (a *Accumulator) Finalize() (*Result, error) {
	if !a.plan.IsAggregate() { // no post-grouping form to evaluate
		return nil, fmt.Errorf("sqlexec: finalize of a query without aggregation")
	}
	// A global aggregate (no GROUP BY) yields exactly one row even over an
	// empty input: COUNT is 0, the other functions are NULL.
	if len(a.plan.GroupCols) == 0 && len(a.groups) == 0 {
		a.group(storage.Row{})
	}
	res, groups, w := &Result{Columns: a.plan.OutputNames}, a.Groups(), len(a.plan.result)
	s := &scope{aggs: make([]storage.Value, len(a.plan.Aggs))}
	rows := make([]storage.Value, len(groups)*w) // the result rows' one slab
	for _, g := range groups {
		for i, st := range g.States {
			s.aggs[i] = st.Result()
		}
		s.group = g.Values
		keep, err := a.plan.having(s)
		if err != nil {
			return nil, fmt.Errorf("sqlexec: HAVING: %w", err)
		}
		if keep.IsNull() || !keep.AsBool() {
			continue
		}
		row := rows[:w:w]
		rows = rows[w:]
		for i, f := range a.plan.result {
			if row[i], err = f(s); err != nil {
				return nil, fmt.Errorf("sqlexec: SELECT %s: %w", a.plan.Stmt.Select[i].Expr, err)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
