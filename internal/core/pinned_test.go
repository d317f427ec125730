package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// pinnedRunDigests holds, per protocol, the SHA-256 of everything the
// determinism contract covers for one fixed run — decrypted rows, Metrics
// (recovery ledger included), journal JSONL and trace export; never
// ciphertext, whose nonces are random — once on an honest fleet and once
// under the reference churn plan. Every other golden test compares run
// against run inside one binary; these constants pin a commit against its
// parent. They were generated at commit 0c12a13 and must only change
// together with a deliberate change to an observable.
var pinnedRunDigests = map[string]struct{ honest, churned string }{
	"Basic": {
		"77e55fb572d1f945deeb912587758e5f846a6235c25a7f88bc42cdcfecc6d747",
		"ea57f25c1b2c01a80653ed5e38dd57139c4bb8ff5e6f802de3e2226aebf7b045"},
	"S_Agg": {
		"9ed824bf9576b6599a048d99820e3ce06216e80982a1bc0857e010c97c0185e3",
		"3462dad3e97e808d7005f4d2f01e31dae000d1f07aa0fd08f2865d876e88a586"},
	"Rnf_Noise": {
		"06fa41ef73190e68708015a230b5ec7fbfce16b5cc7867f2ee2b99be0a558a04",
		"4f00d68f9f326fb7dea82ac7df829107d0d9deb9fdba5680b0ceddb923c5c5c6"},
	"C_Noise": {
		"5b3a0894c2e2083ac1ae3448ea9ed3dcb0925c5a66db77f348f3cdd8c4ab1d4b",
		"c8fcce789126c6eda2826165acb57786085aac95a759d2c4bbb3dd7ec1734dd3"},
	"ED_Hist": {
		"ddb9d3d3efef5389a70e8f385c051783d3784e73da6b5e655e22e4c849ae3bc5",
		"1cef061e3814568286668370e5e1eb597ef9a35f5957fdeceb2967c01428c524"},
}

// TestPinnedRunDigests runs all five protocols over the 40-device fixture
// (seed 7, pinned query ID) on eager and packed fleets at CollectWorkers 1
// and 8 and requires every combination to hash to the pinned constant.
func TestPinnedRunDigests(t *testing.T) {
	for _, sc := range churnScenarios {
		t.Run(sc.kind.String(), func(t *testing.T) {
			want := pinnedRunDigests[sc.kind.String()]
			for _, packed := range []bool{false, true} {
				for _, workers := range []int{1, 8} {
					digest := func(churned bool) string {
						f := newFixture(t, 40, func(c *Config) {
							c.CollectWorkers = workers
							c.PackedFleet = packed
						})
						req := Request{Querier: f.q, SQL: sc.sql, Kind: sc.kind,
							Params: sc.params, QueryID: "pinned"}
						if churned {
							req.Faults = churnPlan()
						}
						resp, err := f.eng.Execute(context.Background(), req)
						if err != nil {
							t.Fatalf("packed=%v workers=%d churned=%v: %v", packed, workers, churned, err)
						}
						o := outcomeOf(t, resp)
						o.metrics.TLocal = 0 // mean of identical sums; float noise
						sum := sha256.Sum256([]byte(fmt.Sprintf("rows %s\nmetrics %+v\njournal %s\ntrace %s",
							o.rows, o.metrics, o.journal, o.trace)))
						return hex.EncodeToString(sum[:])
					}
					if got := digest(false); got != want.honest {
						t.Errorf("packed=%v workers=%d honest: digest %s, want %s", packed, workers, got, want.honest)
					}
					if got := digest(true); got != want.churned {
						t.Errorf("packed=%v workers=%d churned: digest %s, want %s", packed, workers, got, want.churned)
					}
				}
			}
		})
	}
}
