package core

import (
	"context"
	"testing"

	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/querier"
	"github.com/trustedcells/tcq/internal/sqlexec"
)

// Test-side spellings of the common Execute shapes. They replace the
// removed Run / RunTargeted / CollectOnce wrappers in call sites that only
// care about rows and metrics; tests exercising traces, faults or
// cancellation call Execute directly.

func runQuery(e *Engine, q *querier.Querier, sql string, kind protocol.Kind,
	params protocol.Params) (*sqlexec.Result, *Metrics, error) {
	resp, err := e.Execute(context.Background(), Request{
		Querier: q, SQL: sql, Kind: kind, Params: params})
	if err != nil {
		return nil, nil, err
	}
	return resp.Result, resp.Metrics, nil
}

func runTargeted(e *Engine, q *querier.Querier, sql string, kind protocol.Kind,
	params protocol.Params, targets []string) (*sqlexec.Result, *Metrics, error) {
	resp, err := e.Execute(context.Background(), Request{
		Querier: q, SQL: sql, Kind: kind, Params: params, Targets: targets})
	if err != nil {
		return nil, nil, err
	}
	return resp.Result, resp.Metrics, nil
}

func collectOnce(e *Engine, q *querier.Querier, sql string, kind protocol.Kind,
	params protocol.Params) (*Metrics, error) {
	resp, err := e.Execute(context.Background(), Request{
		Querier: q, SQL: sql, Kind: kind, Params: params, CollectOnly: true})
	if err != nil {
		return nil, err
	}
	return resp.Metrics, nil
}

// assertDeviceAccounts checks the collection phase's books: every eligible
// device ends in exactly one account. Metrics carries most of the terms;
// the recovery ledger supplies the two it lacks, envelopes the SSI
// rejected as stale or as coming from a revoked device. A walk a SIZE
// clause closed never reached the rest of the fleet, so there the accounts
// may only fall short of the eligible count. Not for runs under a torn
// rollout: a device queued stale and then retried is booked twice, once
// provisionally in the ledger and once where its retry ended.
func assertDeviceAccounts(t testing.TB, m *Metrics, sizeBounded bool) {
	t.Helper()
	// Both kinds are only ever booked by the collection phase.
	stale, revoked := ledgerCount(m, "deposit-stale"), ledgerCount(m, "deposit-revoked")
	booked := m.DepositedDevices + m.OfflineDevices + m.DroppedDeposits + m.CorruptDeposits +
		stale + revoked + m.CollectErrors
	if booked > m.EligibleDevices || (!sizeBounded && booked != m.EligibleDevices) {
		t.Errorf("device accounts do not close: %d eligible, %d booked "+
			"(%d deposited + %d offline + %d dropped + %d corrupt + %d stale + %d revoked + %d collect errors)",
			m.EligibleDevices, booked, m.DepositedDevices, m.OfflineDevices, m.DroppedDeposits,
			m.CorruptDeposits, stale, revoked, m.CollectErrors)
	}
}
