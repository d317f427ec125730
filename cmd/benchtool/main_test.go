package main

import (
	"strings"
	"testing"
)

// TestRun pins the Fig 7 and Fig 8 exposure values that EXPERIMENTS.md
// quotes, byte for byte.
func TestRun(t *testing.T) {
	for _, tc := range []struct{ name, fig, want string }{
		{"fig7", "7", `Fig 7 — IC-table exposure of the Accounts example (after [12])
  Plaintext  Ԑ = 1.000000   every association certain
  Det_Enc    Ԑ = 0.533333   <Alice,200> inferred with certainty
  nDet_Enc   Ԑ = 0.083333   uniform guessing: Π 1/N_j
`},
		{"fig8", "8", `Fig 8 — information exposure among protocols (Zipf, G=500, n=100000)
  Cleartext            Ԑ = 1.000000
  Det_Enc (R0_Noise)   Ԑ = 0.916440
  R2_Noise             Ԑ = 0.787504
  ED_Hist (h=5)        Ԑ = 0.695274
  R1000_Noise          Ԑ = 0.550950
  C_Noise              Ԑ = 0.002000
  S_Agg                Ԑ = 0.002000
  (worst — most exposed — first; S_Agg/C_Noise sit at the Π 1/N_j floor)
`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var b strings.Builder
			if err := run(tc.fig, 1, 0, 0, 7, &b); err != nil {
				t.Fatal(err)
			}
			if b.String() != tc.want {
				t.Errorf("-fig %s:\n%s\nwant:\n%s", tc.fig, b.String(), tc.want)
			}
		})
	}
}

func TestRunAllFigures(t *testing.T) {
	var b strings.Builder
	if err := run("all", 1, 0, 0, 0, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Fig 9b", "Fig 10a", "Fig 10j", "Fig 11",
		"S_Agg", "ED_Hist", "transfer"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunSinglePanels(t *testing.T) {
	for _, fig := range []string{"9b", "10", "10a", "10e", "10j", "11"} {
		var b strings.Builder
		if err := run(fig, 1, 0, 0, 0, &b); err != nil {
			t.Errorf("run(%q): %v", fig, err)
		}
		if b.Len() == 0 {
			t.Errorf("run(%q): empty output", fig)
		}
	}
}

func TestRunUnknownFigure(t *testing.T) {
	var b strings.Builder
	if err := run("nope", 1, 0, 0, 0, &b); err == nil {
		t.Error("unknown figure accepted")
	}
	if err := run("10z", 1, 0, 0, 0, &b); err == nil {
		t.Error("unknown panel accepted")
	}
}

// TestRunRejectsBadInput covers the inputs the retired exposure command
// refused: figure 9 has no exposure panel, and a validate run over an
// empty fleet has nothing to measure.
func TestRunRejectsBadInput(t *testing.T) {
	var b strings.Builder
	if err := run("9", 1, 0, 0, 0, &b); err == nil {
		t.Error("unknown figure accepted")
	}
	if err := run("validate", 1, 0, 5, 3, &b); err == nil {
		t.Error("degenerate parameters accepted")
	}
}

func TestRunSweepPanels(t *testing.T) {
	for _, fig := range []string{"8h", "8nf"} {
		var b strings.Builder
		if err := run(fig, 1, 0, 0, 3, &b); err != nil {
			t.Fatalf("%s: %v", fig, err)
		}
		if !strings.Contains(b.String(), "Zipf") {
			t.Errorf("%s output: %s", fig, b.String())
		}
	}
}

func TestRunPhases(t *testing.T) {
	var b strings.Builder
	if err := run("phases", 3, 0, 0, 0, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"collection", "aggregation", "filtering", "SSI storage"} {
		if !strings.Contains(out, want) {
			t.Errorf("phases output missing %q", want)
		}
	}
}

func TestRunValidate(t *testing.T) {
	var b strings.Builder
	if err := run("validate", 1, 60, 5, 3, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, p := range []string{"S_Agg", "ED_Hist", "R2_Noise", "C_Noise"} {
		if !strings.Contains(out, "cost-model conformance: "+p+" measured T_Q=") {
			t.Errorf("no %s report block", p)
		}
	}
	for _, want := range []string{"cross-validation: fleet=60 G=5", "Load_Q order (measured): ", "Load_Q order (predicted): "} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if n := strings.Count(out, "  Load_Q "); n != 4 {
		t.Errorf("%d Load_Q lines, want one per protocol:\n%s", n, out)
	}
}

func TestRun2FallsBackToFigures(t *testing.T) {
	var b strings.Builder
	if err := run("9b", 1, 0, 0, 0, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Fig 9b") {
		t.Error("fallback broken")
	}
}
