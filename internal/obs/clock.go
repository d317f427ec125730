// Package obs is the engine's observability layer: a deterministic
// simulated clock, an allocation-light span/event tracer whose output is
// bit-identical across worker counts, and the per-query structured
// journal with its schema checker. A run's trace and journal are two of
// its three records; the third is its settled core.Metrics.
//
// Everything in this package is driven by *simulated* time (netsim
// calibration), never the wall clock, so two runs with the same seeds
// produce byte-identical traces regardless of CollectWorkers or host
// load. scripts/obslint.go enforces that no internal code calls time.Now.
package obs

import "time"

// simOriginUnix anchors the simulated timeline. Every query run starts
// at this instant so trace timestamps are stable offsets, not wall
// times.
const simOriginUnix = 1700000000

// SimOrigin is the fixed origin of the simulated timeline shared by the
// engine, the SSI ledger and the tracer.
func SimOrigin() time.Time { return time.Unix(simOriginUnix, 0) }

// SimClock is the per-run simulated clock. It only moves forward, by
// explicit amounts derived from the calibrated cost model, so its
// readings are a pure function of the run's inputs.
type SimClock struct {
	now time.Time
}

// NewSimClock returns a clock positioned at start.
func NewSimClock(start time.Time) *SimClock { return &SimClock{now: start} }

// Now reports the current simulated instant.
func (c *SimClock) Now() time.Time { return c.now }

// Advance moves the clock forward by d; negative durations are ignored
// (simulated time never rewinds).
func (c *SimClock) Advance(d time.Duration) {
	if d > 0 {
		c.now = c.now.Add(d)
	}
}

// AdvanceTo moves the clock forward to t if t is later than the current
// reading; earlier instants are ignored.
func (c *SimClock) AdvanceTo(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}
