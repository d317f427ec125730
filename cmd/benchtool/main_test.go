package main

import (
	"strings"
	"testing"
)

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
