package core

import (
	"errors"
	"fmt"
)

// Typed sentinel errors of the run path. Callers match them with
// errors.Is; every error returned by Execute that corresponds to one of
// these conditions wraps the sentinel, whatever detail the message adds.
var (
	// ErrNoEligibleTDS means no device can take part in the query: the
	// fleet is empty, or every enrolled device has been revoked.
	ErrNoEligibleTDS = errors.New("core: no eligible TDS")
	// ErrQueryTimeout means the caller's context expired or was canceled
	// before the run completed; partial SSI state is dropped as usual.
	ErrQueryTimeout = errors.New("core: query timed out")
	// ErrCoverageBelowFloor means churn cost the collection phase more of
	// the fleet than the fault plan's CoverageFloor tolerates; the metrics
	// still report the exact ratio reached.
	ErrCoverageBelowFloor = errors.New("core: collection coverage below floor")
)

// ErrSSIMisbehavior is the typed detection error of the verified
// execution path: the engine caught the infrastructure violating the
// protocol and could not recover through the quarantine-and-retry path.
// A query that returns it delivered no rows — detection, never a
// silently wrong answer. Match with errors.As.
type ErrSSIMisbehavior struct {
	// Kind names the failed check: "covering-count" (the stored tuple set
	// does not match the acknowledged deposits), "deposit-commitment" (a
	// stored deposit fails its k2 commitment), "partition-multiset" (a
	// partition build is not a permutation of its input),
	// "coverage-account" (the claimed coverage disagrees with the
	// recovery ledger), or "no-progress" (an S_Agg forced final merge did
	// not reduce: the one check SkipVerify keeps).
	Kind string
	// Phase is where the check failed: "collection" or the partition
	// phase label ("filter-sfw", "aggregate-1", ...).
	Phase string
}

func (e *ErrSSIMisbehavior) Error() string {
	return fmt.Sprintf("core: SSI misbehavior detected: %s in %s phase", e.Kind, e.Phase)
}
