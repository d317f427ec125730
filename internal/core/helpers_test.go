package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/querier"
	"github.com/trustedcells/tcq/internal/sqlexec"
)

// Test-side spellings of the common Execute shapes, for call sites that
// only care about rows and metrics; tests exercising traces or
// cancellation call Execute directly. Every shape closes the collection's
// books before it returns: a run whose device accounts do not balance is
// an error.

func runRequest(e *Engine, req Request) (*sqlexec.Result, *Metrics, error) {
	resp, err := e.Execute(context.Background(), req)
	if err != nil {
		return nil, nil, err
	}
	if err := deviceAccounts(resp.Metrics, sizeBounded(req)); err != nil {
		return nil, nil, err
	}
	return resp.Result, resp.Metrics, nil
}

func runQuery(e *Engine, q *querier.Querier, sql string, kind protocol.Kind,
	params protocol.Params) (*sqlexec.Result, *Metrics, error) {
	return runRequest(e, Request{Querier: q, SQL: sql, Kind: kind, Params: params})
}

func runTargeted(e *Engine, q *querier.Querier, sql string, kind protocol.Kind,
	params protocol.Params, targets []string) (*sqlexec.Result, *Metrics, error) {
	return runRequest(e, Request{Querier: q, SQL: sql, Kind: kind, Params: params, Targets: targets})
}

// sizeBounded reports whether the request's SQL carries a SIZE clause,
// which may close the collection before every device was reached.
func sizeBounded(req Request) bool { return strings.Contains(req.SQL, " SIZE ") }

// deviceAccounts checks the collection phase's books: every eligible
// device ends in exactly one account. Metrics carries most of the terms;
// the recovery ledger supplies the two it lacks, envelopes the SSI
// rejected as stale or as coming from a revoked device. A device a torn
// rollout queued stale has a "deposit-stale" mark that is only
// provisional: its retry books it by its final outcome and leaves a
// "deposit-retry" entry, which takes the mark back out. A walk a SIZE
// clause closed never reached the rest of the fleet, so there the accounts
// may only fall short of the eligible count.
func deviceAccounts(m *Metrics, sizeBounded bool) error {
	// All three kinds are only ever booked by the collection phase.
	stale := ledgerCount(m, "deposit-stale") - ledgerCount(m, "deposit-retry")
	revoked := ledgerCount(m, "deposit-revoked")
	booked := m.DepositedDevices + m.OfflineDevices + m.DroppedDeposits + m.CorruptDeposits +
		stale + revoked + m.CollectErrors
	if booked > m.EligibleDevices || (!sizeBounded && booked != m.EligibleDevices) {
		return fmt.Errorf("device accounts do not close: %d eligible, %d booked "+
			"(%d deposited + %d offline + %d dropped + %d corrupt + %d stale + %d revoked + %d collect errors)",
			m.EligibleDevices, booked, m.DepositedDevices, m.OfflineDevices, m.DroppedDeposits,
			m.CorruptDeposits, stale, revoked, m.CollectErrors)
	}
	return nil
}

func assertDeviceAccounts(t testing.TB, m *Metrics, sizeBounded bool) {
	t.Helper()
	if err := deviceAccounts(m, sizeBounded); err != nil {
		t.Error(err)
	}
}
