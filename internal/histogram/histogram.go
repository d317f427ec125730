// Package histogram builds the nearly equi-depth histograms of the ED_Hist
// protocol (Section 4.4).
//
// Given the (previously discovered) distribution of the grouping attribute
// A_G, the domain is decomposed into buckets holding nearly the same number
// of true tuples. Each bucket is identified by an opaque identifier whose
// keyed hash reveals nothing about the position of the bucket's members in
// the domain; the SSI therefore observes a nearly uniform distribution of
// h(bucketId) values whatever the true distribution of A_G.
//
// The distribution discovery itself is a COUNT Group-By-A_G query executed
// with one of the other protocols (the engine wires that up); it runs once
// and is refreshed from time to time, not per query.
package histogram

import (
	"fmt"
	"sort"

	"github.com/trustedcells/tcq/internal/rng"
)

// Bucket is one cell of the histogram: a set of grouping-value keys whose
// total tuple count ("depth") is near the equi-depth target.
type Bucket struct {
	ID    string
	Keys  []string
	Depth int64
}

// Histogram decomposes a value domain into nearly equi-depth buckets. It is
// immutable after Build and safe for concurrent use by all TDS goroutines.
type Histogram struct {
	buckets []Bucket
	byKey   map[string]int
}

// Build constructs a histogram with at most numBuckets buckets over the
// given distribution (value key -> tuple count). Values with zero or
// negative counts are ignored. The construction is deterministic for a
// given distribution, so every TDS holding the same discovered
// distribution derives the same bucket map — a requirement for the
// protocol to converge.
//
// The assignment is longest-processing-time first: values sorted by
// descending count feed the currently shallowest bucket, producing depths
// within one max-value of the optimum.
func Build(dist map[string]int64, numBuckets int) (*Histogram, error) {
	if numBuckets <= 0 {
		return nil, fmt.Errorf("histogram: numBuckets must be positive, got %d", numBuckets)
	}
	type vc struct {
		key   string
		count int64
	}
	vals := make([]vc, 0, len(dist))
	for k, c := range dist {
		if c > 0 {
			vals = append(vals, vc{k, c})
		}
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("histogram: empty distribution")
	}
	if numBuckets > len(vals) {
		numBuckets = len(vals)
	}
	// Deterministic LPT: by count descending, ties by key.
	sort.Slice(vals, func(i, j int) bool {
		if vals[i].count != vals[j].count {
			return vals[i].count > vals[j].count
		}
		return vals[i].key < vals[j].key
	})
	h := &Histogram{
		buckets: make([]Bucket, numBuckets),
		byKey:   make(map[string]int, len(vals)),
	}
	for i := range h.buckets {
		h.buckets[i].ID = fmt.Sprintf("bucket-%04d", i)
	}
	for _, v := range vals {
		min := 0
		for i := 1; i < numBuckets; i++ {
			if h.buckets[i].Depth < h.buckets[min].Depth {
				min = i
			}
		}
		h.buckets[min].Keys = append(h.buckets[min].Keys, v.key)
		h.buckets[min].Depth += v.count
		h.byKey[v.key] = min
	}
	return h, nil
}

// MustBuild is Build for tests and examples.
func MustBuild(dist map[string]int64, numBuckets int) *Histogram {
	h, err := Build(dist, numBuckets)
	if err != nil {
		panic(err)
	}
	return h
}

// BucketOf returns the bucket identifier of a grouping-value key. Unknown
// values (not seen during discovery — e.g., data inserted since the last
// refresh) fall back deterministically to a bucket derived from the key so
// the protocol still terminates; ok is false to let callers count misses.
func (h *Histogram) BucketOf(key string) (id string, ok bool) {
	if i, found := h.byKey[key]; found {
		return h.buckets[i].ID, true
	}
	return h.buckets[int(rng.Hash(key))%len(h.buckets)].ID, false
}

// NumBuckets returns M, the number of buckets.
func (h *Histogram) NumBuckets() int { return len(h.buckets) }

// Buckets returns the buckets (shared slice; do not modify).
func (h *Histogram) Buckets() []Bucket { return h.buckets }
