package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func buildJournal(t *testing.T) *QueryJournal {
	t.Helper()
	j := NewJournal()
	at := SimOrigin()
	j.Begin("q")
	j.Emit("q", JournalEvent{Kind: JournalPhaseEnd, Phase: "stale", Party: PartyEngine, At: at})
	j.Begin("q") // a fresh stream replaces the old one
	j.Emit("q", JournalEvent{Kind: JournalQueryStart, Party: PartyEngine, Detail: "S_Agg", At: at})
	j.Emit("q", JournalEvent{Kind: JournalPhaseStart, Phase: "collection", Party: PartyEngine, At: at,
		Facts: CipherFacts{Count: 3}})
	j.Emit("q", JournalEvent{Kind: JournalLedger, Phase: "collection", Party: PartySSI,
		Device: "tds-7", Detail: "deposit-timeout", At: at.Add(time.Millisecond),
		Facts: CipherFacts{Attempt: 2, Wait: time.Millisecond}})
	j.Emit("q", JournalEvent{Kind: JournalPhaseEnd, Phase: "collection", Party: PartyEngine,
		At: at.Add(2 * time.Millisecond), Facts: CipherFacts{Tuples: 40, Bytes: 640}})
	j.Emit("q", JournalEvent{Kind: JournalQueryEnd, Party: PartyEngine, Detail: "ok",
		At: at.Add(3 * time.Millisecond), Facts: CipherFacts{Count: 5}})
	qj := j.Take("q")
	if qj == nil {
		t.Fatal("Take returned nil")
	}
	return qj
}

func TestJournalStreamAndChecker(t *testing.T) {
	qj := buildJournal(t)
	raw := qj.Bytes()
	if len(raw) == 0 {
		t.Fatal("journal serialized to nothing")
	}
	if err := CheckJournal(bytes.NewReader(raw)); err != nil {
		t.Fatalf("CheckJournal rejected a healthy stream: %v\n%s", err, raw)
	}
	// Identical construction must be byte-identical.
	if !bytes.Equal(raw, buildJournal(t).Bytes()) {
		t.Fatal("two identical journals serialized differently")
	}
	for _, want := range []string{
		`"v":1`, `"seq":0`, `"kind":"query-start"`, `"detail":"deposit-timeout"`,
		`"device":"tds-7"`, `"phase":"collection"`, `"kind":"query-end"`,
	} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("journal missing %q:\n%s", want, raw)
		}
	}
	if got := qj.Counts()[JournalLedger]; got != 1 {
		t.Fatalf("ledger count = %d, want 1", got)
	}
}

func TestJournalLifecycle(t *testing.T) {
	j := NewJournal()
	j.Begin("a")
	j.Begin("b")
	j.Emit("ghost", JournalEvent{Kind: JournalQueryStart}) // no stream: dropped
	j.Discard("a")
	if j.Take("a") != nil || j.Take("ghost") != nil {
		t.Fatal("a discarded or never-begun stream was taken")
	}
	if j.Take("b") == nil {
		t.Fatal("Take(b) returned nil")
	}
	if j.Take("b") != nil {
		t.Fatal("second Take(b) returned a stream")
	}
	var qj *QueryJournal
	if err := qj.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckJournalRejectsGarbage(t *testing.T) {
	bad := map[string]string{
		"empty":         "",
		"not json":      "nope\n",
		"bad version":   `{"v":2,"seq":0,"kind":"query-end","party":"engine","at_ns":0}` + "\n",
		"seq gap":       `{"v":1,"seq":1,"kind":"query-end","party":"engine","at_ns":0}` + "\n",
		"unknown kind":  `{"v":1,"seq":0,"kind":"mystery","party":"engine","at_ns":0}` + "\n",
		"unknown party": `{"v":1,"seq":0,"kind":"query-end","party":"mallory","at_ns":0}` + "\n",
		"negative time": `{"v":1,"seq":0,"kind":"query-end","party":"engine","at_ns":-1}` + "\n",
		"unknown field": `{"v":1,"seq":0,"kind":"query-end","party":"engine","at_ns":0,"sql":"SELECT"}` + "\n",
		"leaky detail":  `{"v":1,"seq":0,"kind":"query-end","party":"engine","detail":"name = 'Paris'","at_ns":0}` + "\n",
		"no terminal":   `{"v":1,"seq":0,"kind":"query-start","party":"engine","at_ns":0}` + "\n",
		"unmatched end": `{"v":1,"seq":0,"kind":"phase-end","phase":"collection","party":"engine","at_ns":0}` + "\n",
		"phase left open": `{"v":1,"seq":0,"kind":"phase-start","phase":"collection","party":"engine","at_ns":0}` + "\n" +
			`{"v":1,"seq":1,"kind":"query-end","party":"engine","at_ns":0}` + "\n",
	}
	for name, doc := range bad {
		if err := CheckJournal(strings.NewReader(doc)); err == nil {
			t.Errorf("CheckJournal accepted %s: %q", name, doc)
		}
	}
	// An abort may leave phases open — that is the one sanctioned
	// non-closure.
	aborted := `{"v":1,"seq":0,"kind":"phase-start","phase":"collection","party":"engine","at_ns":0}` + "\n" +
		`{"v":1,"seq":1,"kind":"abort","party":"engine","detail":"timeout","at_ns":5}` + "\n"
	if err := CheckJournal(strings.NewReader(aborted)); err != nil {
		t.Errorf("CheckJournal rejected an aborted stream: %v", err)
	}
}
