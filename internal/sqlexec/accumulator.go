package sqlexec

import (
	"encoding/binary"
	"fmt"
	"sort"

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
// limiting factor for S_Agg.
type Accumulator struct {
	plan   *Plan
	groups map[string]*Group
	key    []byte             // scratch for group lookups
	dec    storage.RowDecoder // MergeEncoded's grouping values
	// A new group is carved from these slabs.
	slab   []Group
	vals   []storage.Value
	states []AggState
	stateSlabs
}

// NewAccumulator returns an empty accumulator for the plan.
func NewAccumulator(plan *Plan) *Accumulator {
	return &Accumulator{plan: plan, groups: make(map[string]*Group)}
}

// NumGroups returns the number of distinct groups accumulated so far.
func (a *Accumulator) NumGroups() int { return len(a.groups) }

// group returns (creating if needed) the bucket for the grouping values.
// The lookup goes through the scratch key. A new group's key string is
// the one allocation of its own: its values, states and the Group itself
// are carved from the accumulator's slabs.
func (a *Accumulator) group(groupVals storage.Row) *Group {
	a.key = groupVals.AppendKey(a.key[:0])
	g, ok := a.groups[string(a.key)]
	if !ok {
		k := len(a.groups)
		g = &carve(&a.slab, 1, k)[0]
		g.Values = carve(&a.vals, len(groupVals), k)
		copy(g.Values, groupVals)
		g.States = carve(&a.states, len(a.plan.Aggs), k)
		for i, spec := range a.plan.Aggs {
			g.States[i] = a.next(spec, k)
		}
		a.groups[string(a.key)] = g
	}
	return g
}

// carve returns n zero elements cut from the slab. A short slab is
// replaced by a chunk of n per group so far (k), so a slab doubles with
// the groups; what it handed out stays where it is.
func carve[T any](slab *[]T, n, k int) []T {
	if cap(*slab)-len(*slab) < n {
		*slab = make([]T, 0, n*max(k, 1))
	}
	s := *slab
	*slab = s[:len(s)+n]
	return s[len(s) : len(s)+n : len(s)+n]
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

// Groups returns the buckets sorted by group key (deterministic order).
func (a *Accumulator) Groups() []*Group {
	keys := make([]string, 0, len(a.groups))
	for k := range a.groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Group, len(keys))
	for i, k := range keys {
		out[i] = a.groups[k]
	}
	return out
}

// Encode serializes the whole partial aggregation:
//
//	uvarint #groups, then per group: group row + each state's encoding.
//
// The encoding is deterministic (groups sorted by key), so Det_Enc over a
// partial aggregation is well-defined.
func (a *Accumulator) Encode() []byte {
	var dst []byte
	dst = binary.AppendUvarint(dst, uint64(len(a.groups)))
	for _, g := range a.Groups() {
		dst = storage.AppendRow(dst, g.Values)
		for _, st := range g.States {
			dst = st.AppendEncode(dst)
		}
	}
	return dst
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
	out := ""
	for i, c := range r.Columns {
		if i > 0 {
			out += " | "
		}
		out += c
	}
	out += "\n"
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
	res, groups := &Result{Columns: a.plan.OutputNames}, a.Groups()
	s := &scope{aggs: make([]storage.Value, len(a.plan.Aggs))}
	rows := make([]storage.Value, 0, len(groups)*len(a.plan.result)) // the result rows' one slab
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
		row := carve(&rows, len(a.plan.result), 0)
		for i, f := range a.plan.result {
			if row[i], err = f(s); err != nil {
				return nil, fmt.Errorf("sqlexec: SELECT %s: %w", a.plan.Stmt.Select[i].Expr, err)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
