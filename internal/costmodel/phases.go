package costmodel

import (
	"fmt"
	"math"
	"time"
)

// The paper's Section 6.1 focuses on the aggregation phase ("the most
// complex phase") and notes that the complete cost model lives in the
// technical report [20]. This file extends the closed forms to the other
// phases with terms derived from the protocol definitions:
//
//   - Collection: N_t tuples uploaded by N_t TDSs in parallel — each
//     device pays one tuple upload (noise protocols pay (n_f+1) tuples);
//     the SSI stores the covering result.
//   - Aggregation: the Section 6.1 forms implemented in costmodel.go.
//   - Filtering: the final G (or result) tuples take one more
//     decrypt/filter/re-encrypt pass, spread over available TDSs.
//
// It also models the replication overhead of the compromised-TDS audit
// extension implemented in internal/core: r replicas multiply the
// aggregation and filtering work and leave collection untouched.

// PhaseCost is one phase's contribution.
type PhaseCost struct {
	Name   string
	TQ     time.Duration // phase duration
	Load   float64       // bytes through TDSs + SSI in this phase
	PTDS   float64       // TDS participations in this phase
	TLocal time.Duration // average busy time per participating TDS
}

// FullCost is the per-phase decomposition for one protocol.
type FullCost struct {
	Protocol string
	Phases   []PhaseCost
	// SSIStorage is the peak temporary-storage footprint at the SSI:
	// the covering result of the collection phase.
	SSIStorage float64
}

// Total sums the phases into the headline metrics.
func (f FullCost) Total() Metrics {
	var m Metrics
	var busy time.Duration
	for _, p := range f.Phases {
		m.TQ += p.TQ
		m.LoadQ += p.Load
		m.PTDS += p.PTDS
		busy += time.Duration(float64(p.TLocal) * p.PTDS)
	}
	if m.PTDS > 0 {
		m.TLocal = time.Duration(float64(busy) / m.PTDS)
	}
	return m
}

// String renders the decomposition as an aligned table.
func (f FullCost) String() string {
	s := fmt.Sprintf("%s (SSI storage %.3g MB)\n", f.Protocol, f.SSIStorage/1e6)
	for _, p := range f.Phases {
		s += fmt.Sprintf("  %-12s T=%-14v load=%-10.4gMB P_TDS=%-10.4g T_local=%v\n",
			p.Name, p.TQ, p.Load/1e6, p.PTDS, p.TLocal)
	}
	return s
}

// expansion returns the collection-phase tuple multiplier of a protocol.
func expansion(name string, p Params) float64 {
	switch name {
	case NameRnfNoise:
		return p.Nf + 1 // n_f fakes + 1 true
	case NameCNoise:
		return p.G // n_d - 1 fakes + 1 true, n_d ≈ G
	default:
		return 1
	}
}

// collectionPhase models the fully parallel collection step: every one of
// the N_t devices uploads its expansion·1 tuples.
func collectionPhase(name string, p Params) PhaseCost {
	ex := expansion(name, p)
	perDevice := time.Duration(ex * tt(p) * float64(time.Second))
	return PhaseCost{
		Name:   "collection",
		TQ:     perDevice, // all devices connect and upload in parallel
		Load:   ex * p.Nt * p.St,
		PTDS:   p.Nt,
		TLocal: perDevice,
	}
}

// filteringPhase models the last pass over the G final groups (or the
// covering result for the basic protocol): download, HAVING evaluation,
// re-encryption with k1.
func filteringPhase(p Params) PhaseCost {
	perPartition := 256.0 // tuples per 4 KB partition at s_t = 16 B
	partitions := math.Ceil(p.G / perPartition)
	workers := math.Min(partitions, p.Available)
	if workers < 1 {
		workers = 1
	}
	tuplesPerWorker := p.G / workers
	dur := time.Duration(tuplesPerWorker * tt(p) * float64(time.Second))
	return PhaseCost{
		Name:   "filtering",
		TQ:     dur,
		Load:   2 * p.G * p.St, // download partials + upload results
		PTDS:   workers,
		TLocal: dur,
	}
}

// aggregationPhase adapts the Section 6.1 metrics into a PhaseCost.
func aggregationPhase(name string, p Params) PhaseCost {
	var m Metrics
	switch name {
	case NameSAgg:
		m = SAgg(p)
	case NameRnfNoise:
		m = RnfNoise(p)
	case NameCNoise:
		m = CNoise(p)
	case NameEDHist:
		m = EDHist(p)
	}
	return PhaseCost{
		Name:   "aggregation",
		TQ:     m.TQ,
		Load:   m.LoadQ,
		PTDS:   m.PTDS,
		TLocal: m.TLocal,
	}
}

// Full returns the complete per-phase cost decomposition of a protocol,
// optionally with the audit extension's replication factor (1 = off).
// NameRnfNoise reads p.Nf; Fig. 10's two legends for it set p.Nf.
func Full(legend string, p Params, auditReplicas int) (FullCost, error) {
	name := legend
	if nf, ok := legendNf[legend]; ok {
		name, p.Nf = NameRnfNoise, nf
	}
	switch name {
	case NameBasic, NameSAgg, NameCNoise, NameEDHist:
	case NameRnfNoise:
		legend = fmt.Sprintf("R%g_Noise", p.Nf) // the figures' name for the operating point
	default:
		return FullCost{}, fmt.Errorf("costmodel: unknown protocol %q", legend)
	}
	p = p.withDefaults()
	if auditReplicas < 1 {
		auditReplicas = 1
	}
	if name == NameBasic {
		// Select-From-Where: no aggregation — the filtering pass walks the
		// whole covering result, so its G is N_t.
		q := p
		q.G = p.Nt
		col := collectionPhase(name, p)
		fil := filteringPhase(q)
		r := float64(auditReplicas)
		fil.Load *= r
		fil.PTDS *= r
		return FullCost{
			Protocol:   legend,
			Phases:     []PhaseCost{col, fil},
			SSIStorage: p.Nt * p.St,
		}, nil
	}
	col := collectionPhase(name, p)
	agg := aggregationPhase(name, p)
	fil := filteringPhase(p)
	// The audit replicates aggregation and filtering work r times;
	// collection is the devices' own data and is not replicated.
	r := float64(auditReplicas)
	agg.Load *= r
	agg.PTDS *= r
	fil.Load *= r
	fil.PTDS *= r
	// Replicas run concurrently, but they compete for the same available
	// TDSs: wall-clock stretches once replicas saturate availability.
	if agg.PTDS > p.Available {
		agg.TQ = time.Duration(float64(agg.TQ) * math.Min(r, agg.PTDS/p.Available))
	}
	return FullCost{
		Protocol:   legend,
		Phases:     []PhaseCost{col, agg, fil},
		SSIStorage: expansion(name, p) * p.Nt * p.St,
	}, nil
}

// FullAll decomposes every protocol at the given operating point.
func FullAll(p Params, auditReplicas int) []FullCost {
	out := make([]FullCost, 0, len(ProtocolNames()))
	for _, n := range ProtocolNames() {
		fc, err := Full(n, p, auditReplicas)
		if err != nil {
			panic(err) // unreachable: names come from ProtocolNames
		}
		out = append(out, fc)
	}
	return out
}
