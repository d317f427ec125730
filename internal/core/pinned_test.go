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
// parent, and must only change together with a deliberate change to an
// observable. They were last regenerated by the re-pin (PR 24: every
// engine stream moved to internal/rng's two-word generator, and the
// Rnf_Noise pair gained the n_f = 0 tq_ratio); DESIGN.md §16 says what
// such a PR may regenerate and what must pass unmodified across it.
var pinnedRunDigests = map[string]struct{ honest, churned string }{
	"Basic": {
		"b085344ca7d83cdf019e524ed589eb2b82ba4b0fee395745e2523ce3cfa1dfa7",
		"65035f10ca71bbece18b26011ad8fcd27d223aa416a09f93102333e47d56b981"},
	"S_Agg": {
		"ffa88863eccd2bebd235c6f5673fa0ab7742428140e5c2348c5265eee4c1d0e4",
		"e247b07b9ca47c2f581477006dc9a25c6a40e0b21cf04fecaddb38cbe7385b06"},
	"Rnf_Noise": {
		"900aa3137eff16e50971c62a9b3381f701d5ecfc31769861d29e609808defc1d",
		"ed2c43cf5637de536bc83edd744861e323c732f6a616664bbc267b2a43a90567"},
	"C_Noise": {
		"48b66c74d1baa129e68882976758241d26375f7f670a153b9bb4a85b769fab09",
		"a8bf396830804d880f78a6a57392e588f244379b96ce0ae4932659d6ea447db3"},
	"ED_Hist": {
		"cc70af8a57e5e42cd21fd498e3ff11d4f1dac56d7ad73a9df17ba513420e8a52",
		"b661770bf16eb96a67750dec09084552c78f8ca7790d8a8342e210673cf3dcc9"},
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
						o := outcomeOf(t, req, resp)
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
