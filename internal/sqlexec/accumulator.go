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
	key    []byte // scratch for group's lookups
}

// NewAccumulator returns an empty accumulator for the plan.
func NewAccumulator(plan *Plan) *Accumulator {
	return &Accumulator{plan: plan, groups: make(map[string]*Group)}
}

// NumGroups returns the number of distinct groups accumulated so far.
func (a *Accumulator) NumGroups() int { return len(a.groups) }

// group returns (creating if needed) the bucket for the grouping values.
// The lookup goes through the scratch key, so a key string is allocated
// only when a group is first seen.
func (a *Accumulator) group(groupVals storage.Row) *Group {
	a.key = groupVals.AppendKey(a.key[:0])
	g, ok := a.groups[string(a.key)]
	if !ok {
		g = &Group{Values: groupVals.Clone(), States: make([]AggState, len(a.plan.Aggs))}
		for i, spec := range a.plan.Aggs {
			g.States[i] = NewAggState(spec)
		}
		a.groups[string(a.key)] = g
	}
	return g
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

// Merge folds another accumulator into this one (⊕ between partial
// aggregations).
func (a *Accumulator) Merge(other *Accumulator) error {
	for _, og := range other.groups {
		g := a.group(og.Values)
		for i := range g.States {
			if err := g.States[i].Merge(og.States[i]); err != nil {
				return err
			}
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

// EncodeGroup serializes a single group in the same per-group layout used
// by Encode. The noise and histogram protocols ship one group (or bucket)
// at a time.
func EncodeGroup(plan *Plan, g *Group) []byte {
	return AppendGroup(nil, plan, g)
}

// AppendGroup appends the single-group encoding of EncodeGroup to dst and
// returns the result, so per-group emit loops can reuse one scratch buffer.
func AppendGroup(dst []byte, _ *Plan, g *Group) []byte {
	dst = binary.AppendUvarint(dst, 1)
	dst = storage.AppendRow(dst, g.Values)
	for _, st := range g.States {
		dst = st.AppendEncode(dst)
	}
	return dst
}

// MergeEncoded decodes a serialized partial aggregation and merges it.
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
		groupVals, c, err := storage.DecodeRow(b[off:])
		if err != nil {
			return fmt.Errorf("sqlexec: group %d values: %w", i, err)
		}
		if len(groupVals) != len(a.plan.GroupCols) {
			return fmt.Errorf("sqlexec: group %d arity %d, want %d",
				i, len(groupVals), len(a.plan.GroupCols))
		}
		off += c
		g := a.group(groupVals)
		for j, spec := range a.plan.Aggs {
			st, c, err := DecodeAggState(spec, b[off:])
			if err != nil {
				return fmt.Errorf("sqlexec: group %d state %d: %w", i, j, err)
			}
			off += c
			if err := g.States[j].Merge(st); err != nil {
				return err
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
// groups that do not satisfy HAVING).
func (a *Accumulator) Finalize() (*Result, error) {
	// A global aggregate (no GROUP BY) yields exactly one row even over an
	// empty input: COUNT is 0, the other functions are NULL.
	if len(a.plan.GroupCols) == 0 && len(a.groups) == 0 {
		a.group(storage.Row{})
	}
	res := &Result{Columns: a.plan.OutputNames}
	for _, g := range a.Groups() {
		aggResults := make([]storage.Value, len(g.States))
		for i, st := range g.States {
			aggResults[i] = st.Result()
		}
		ctx := &evalContext{plan: a.plan, groupRow: g.Values, aggResults: aggResults}
		keep, err := ctx.predicateTrue(a.plan.Stmt.Having)
		if err != nil {
			return nil, fmt.Errorf("sqlexec: HAVING: %w", err)
		}
		if !keep {
			continue
		}
		row := make(storage.Row, 0, len(a.plan.Stmt.Select))
		for _, it := range a.plan.Stmt.Select {
			v, err := ctx.evalExpr(it.Expr)
			if err != nil {
				return nil, fmt.Errorf("sqlexec: SELECT %s: %w", it.Expr, err)
			}
			row = append(row, v)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
