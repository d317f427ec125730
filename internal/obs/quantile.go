package obs

import "sort"

// Quantile returns the exact q-quantile of the samples (0 <= q <= 1),
// linearly interpolating between order statistics, for reports that keep
// the raw samples, e.g. the multi-tenant latency sweep. Returns 0 for an
// empty slice; the input is not modified.
func Quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}
