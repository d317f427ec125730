package sqlexec

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/trustedcells/tcq/internal/storage"
)

// TestMergeTreeInvariance: the S_Agg aggregation phase merges partial
// aggregations along an arbitrary tree decided by the SSI's random
// partitioning. The final result must not depend on the tree shape — for
// any random binary merge tree over any partitioning of the collection
// rows, Finalize must produce the same answer as the flat fold. One
// accumulator, Reset between the leaves and merges as a device's is
// between partitions, must answer each as a fresh one does: the same
// Encode bytes and Finalize rows, after larger partitions as well.
func TestMergeTreeInvariance(t *testing.T) {
	p := compile(t, `SELECT district, COUNT(*), SUM(P.cons), AVG(P.cons), `+
		`MIN(P.cons), MAX(P.cons), MEDIAN(P.cons), COUNT(DISTINCT P.cid), `+
		`VARIANCE(P.cons), STDDEV(P.cons) `+
		`FROM Power P, Consumer C WHERE C.cid = P.cid GROUP BY district`)

	rng := rand.New(rand.NewSource(99))
	districts := []string{"A", "B", "C"}
	var rows []storage.Row
	for i := 0; i < 120; i++ {
		rows = append(rows, storage.Row{
			storage.Str(districts[rng.Intn(len(districts))]),
			storage.Float(math.Round(rng.NormFloat64()*1000) / 16), // dyadic: exact fp sums
		})
	}
	// Collection rows are (district, agg inputs...) — build them directly
	// with the plan's width: group value + one input per aggregate (the
	// cid input for COUNT DISTINCT is the row index).
	collection := make([]storage.Row, len(rows))
	for i, r := range rows {
		cr := make(storage.Row, 0, p.CollectionWidth())
		cr = append(cr, r[0])           // district
		cr = append(cr, storage.Int(1)) // COUNT(*)
		for j := 0; j < 5; j++ {        // SUM..MEDIAN inputs
			cr = append(cr, r[1])
		}
		cr = append(cr, storage.Int(int64(i%40))) // COUNT(DISTINCT cid)
		cr = append(cr, r[1], r[1])               // VARIANCE, STDDEV
		collection[i] = cr
	}

	flat := NewAccumulator(p)
	for _, cr := range collection {
		noErr(t, flat.AddCollectionRow(cr))
	}
	want, err := flat.Finalize()
	noErr(t, err)

	// fold runs f on a fresh accumulator and on the Reset one, and returns
	// the fresh one once both encode and finalize alike.
	reused, shrank := NewAccumulator(p), 0
	fold := func(f func(*Accumulator) error) *Accumulator {
		fresh, before := NewAccumulator(p), reused.NumGroups()
		reused.Reset(p)
		noErr(t, errors.Join(f(fresh), f(reused)))
		if reused.NumGroups() < before {
			shrank++
		}
		got, err1 := reused.Finalize()
		res, err2 := fresh.Finalize()
		if err := errors.Join(err1, err2); err != nil || !bytes.Equal(reused.Encode(), fresh.Encode()) || got.String() != res.String() {
			t.Fatalf("a Reset accumulator encodes %x, finalized\n%s; a fresh one %x,\n%s(%v)", reused.Encode(), got, fresh.Encode(), res, err)
		}
		return fresh
	}

	// 25 random merge trees: random leaf partitioning, then random
	// pairwise merges through the encoded wire format.
	for trial := 0; trial < 25; trial++ {
		trng := rand.New(rand.NewSource(int64(trial)))
		perm := trng.Perm(len(collection))
		var leaves [][]byte
		i := 0
		for i < len(perm) {
			n := 1 + trng.Intn(9)
			if i+n > len(perm) {
				n = len(perm) - i
			}
			rows := perm[i : i+n]
			leaves = append(leaves, fold(func(acc *Accumulator) error {
				for _, idx := range rows {
					if err := acc.AddCollectionRow(collection[idx]); err != nil {
						return err
					}
				}
				return nil
			}).Encode())
			i += n
		}
		for len(leaves) > 1 {
			a := trng.Intn(len(leaves))
			b := trng.Intn(len(leaves))
			if a == b {
				continue
			}
			x, y := leaves[a], leaves[b]
			enc := fold(func(merged *Accumulator) error {
				return errors.Join(merged.MergeEncoded(x), merged.MergeEncoded(y))
			}).Encode()
			if a > b {
				a, b = b, a
			}
			leaves[a] = enc
			leaves = append(leaves[:b], leaves[b+1:]...)
		}
		final := NewAccumulator(p)
		noErr(t, final.MergeEncoded(leaves[0]))
		got, err := final.Finalize()
		noErr(t, err)
		if got.String() != want.String() {
			t.Fatalf("trial %d: merge tree changed the result:\n%s\nvs\n%s",
				trial, got, want)
		}
	}
	if shrank == 0 {
		t.Error("no fold met fewer groups than the one before it")
	}
}
