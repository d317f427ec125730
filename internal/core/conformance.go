package core

import (
	"fmt"
	"strings"
	"time"

	"github.com/trustedcells/tcq/internal/costmodel"
)

// The conformance report closes the loop between the paper's two
// methodologies: the functional simulator (what a run actually cost in
// simulated time) and the Section 6.1 analytical cost model (what it
// should have cost). Every successful run is checked against the model
// at its own operating point — N_t, G, s_t and T_t all measured from the
// run itself — on T_Q and Load_Q, and the measured/predicted T_Q ratio
// lands on the root span and in check.sh's regression gate. A drift in either the engine's
// accounting or the model's closed forms moves the ratio out of its band.

// PhaseConformance compares one phase family's simulated duration with
// the model's prediction.
type PhaseConformance struct {
	Name      string        // collection, aggregation, filtering
	Measured  time.Duration // simulated duration of the run's matching phases
	Predicted time.Duration // the cost model's phase duration
}

// ConformanceReport is the run-vs-model comparison for one query.
type ConformanceReport struct {
	// Protocol is the cost model's name for the configuration
	// (S_Agg, R<n_f>_Noise, C_Noise, ED_Hist, Basic).
	Protocol string
	// MeasuredTQ is Metrics.TQ: the simulated aggregation + filtering
	// duration (collection excluded, as in the paper's T_Q).
	MeasuredTQ time.Duration
	// PredictedTQ is the model's aggregation + filtering duration at the
	// run's own operating point.
	PredictedTQ time.Duration
	// Ratio is MeasuredTQ / PredictedTQ. The model is a closed-form
	// approximation, so the ratio is not 1.0 — but it is deterministic
	// per configuration, which is what the regression gate pins.
	Ratio float64
	// MeasuredLoadQ is Metrics.LoadBytes; PredictedLoadQ is the model's
	// Load_Q in bytes at the same point. Both include collection.
	MeasuredLoadQ  int64
	PredictedLoadQ float64
	// Phases is the per-phase-family breakdown, in model order.
	Phases []PhaseConformance
}

// String renders the report for trace summaries.
func (r *ConformanceReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cost-model conformance: %s measured T_Q=%v predicted=%v ratio=%.3f\n",
		r.Protocol, r.MeasuredTQ, r.PredictedTQ, r.Ratio)
	fmt.Fprintf(&b, "  %-12s measured=%-14d predicted=%.0f (bytes)\n", "Load_Q", r.MeasuredLoadQ, r.PredictedLoadQ)
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "  %-12s measured=%-14v predicted=%v\n", p.Name, p.Measured, p.Predicted)
	}
	return b.String()
}

// phaseFamily folds the engine's concrete phase names into the model's
// three families. The collect phase never appears in Metrics.Phases (its
// timing is excluded from T_Q), so only aggregation and filtering occur.
func phaseFamily(name string) string {
	switch {
	case strings.HasPrefix(name, "s_agg-step-"), strings.HasPrefix(name, "aggregate-"):
		return "aggregation"
	default: // filtering, filter-sfw
		return "filtering"
	}
}

// conformance builds the report for a finished run; nil when the run
// collected nothing.
func (e *Engine) conformance(rs *runState) *ConformanceReport {
	m := rs.metrics
	if m.Nt == 0 {
		return nil
	}

	// The model's operating point, measured from the run itself. s_t is
	// the mean accepted-deposit ciphertext per tuple; T_t re-derives the
	// per-tuple cost from the calibration at that tuple size, billing the
	// round trip the way meterUnit does (down + decrypt + compute in,
	// encrypt + up out — symmetric at equal sizes).
	st := float64(m.CollectBytes) / float64(m.Nt)
	if st <= 0 {
		st = float64(e.cal.TupleSize)
	}
	tt := e.cal.TupleTime(int(st + 0.5))
	g := float64(m.Groups) // unused for Basic: costmodel.Full walks the covering result there
	if g < 1 {
		g = 1
	}
	p := costmodel.Params{
		Nt:        float64(m.Nt),
		G:         g,
		St:        st,
		Tt:        tt,
		Available: float64(rs.workers),
		Alpha:     rs.post.Params.Alpha,
		Nf:        float64(rs.post.Params.Nf),
		H:         rs.post.Params.CollisionFactor,
	}
	// The cost model spells its protocols as protocol.Kind prints them.
	fc, err := costmodel.Full(rs.post.Kind.String(), p, e.cfg.AuditReplicas)
	if err != nil {
		return nil
	}

	rep := &ConformanceReport{Protocol: fc.Protocol, MeasuredTQ: m.TQ,
		MeasuredLoadQ: m.LoadBytes, PredictedLoadQ: fc.Total().LoadQ}
	measured := map[string]time.Duration{}
	for _, ph := range m.Phases {
		measured[phaseFamily(ph.Name)] += ph.Duration
	}
	for _, ph := range fc.Phases {
		if ph.Name == "collection" {
			continue // excluded from T_Q, as in the paper
		}
		rep.PredictedTQ += ph.TQ
		rep.Phases = append(rep.Phases, PhaseConformance{
			Name: ph.Name, Measured: measured[ph.Name], Predicted: ph.TQ,
		})
	}
	if rep.PredictedTQ > 0 {
		rep.Ratio = rep.MeasuredTQ.Seconds() / rep.PredictedTQ.Seconds()
	}
	return rep
}
