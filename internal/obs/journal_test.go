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
	j.Begin("q") // idempotent
	j.Emit("q", JournalEvent{Kind: JournalAdmission, Party: PartyEngine, Detail: "edf", At: at})
	j.Emit("q", JournalEvent{Kind: JournalDispatch, Party: PartyEngine, At: at})
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
		`"v":1`, `"seq":0`, `"kind":"admission"`, `"detail":"deposit-timeout"`,
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

func TestJournalLifecycleAndGauge(t *testing.T) {
	j := NewJournal()
	g := NewRegistry().Gauge("open", "open streams")
	j.SetOpenGauge(g)
	j.Begin("a")
	j.Begin("b")
	if j.OpenStreams() != 2 || g.Value() != 2 {
		t.Fatalf("open = %d gauge = %v, want 2/2", j.OpenStreams(), g.Value())
	}
	j.Emit("ghost", JournalEvent{Kind: JournalQueryStart}) // no stream: dropped
	j.Discard("a")
	j.Discard("a") // double discard must not underflow
	if j.Take("b") == nil {
		t.Fatal("Take(b) returned nil")
	}
	if j.Take("b") != nil {
		t.Fatal("second Take(b) returned a stream")
	}
	if j.OpenStreams() != 0 || g.Value() != 0 {
		t.Fatalf("after drain: open = %d gauge = %v, want 0/0", j.OpenStreams(), g.Value())
	}
}

func TestNilJournalSafe(t *testing.T) {
	var j *Journal
	j.Begin("q")
	j.Emit("q", JournalEvent{Kind: JournalQueryStart})
	j.SetOpenGauge(nil)
	if j.Take("q") != nil || j.OpenStreams() != 0 {
		t.Fatal("nil journal produced state")
	}
	j.Discard("q")
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

func TestSampleDeviceDeterministicAndProportional(t *testing.T) {
	// Off (0) and full (1) keep everything.
	for _, rate := range []float64{0, 1, 1.5, -0.2} {
		if !SampleDevice("tds-000042", rate) {
			t.Fatalf("rate %v dropped a device", rate)
		}
	}
	kept := 0
	const n = 10000
	for i := 0; i < n; i++ {
		id := "tds-" + strings.Repeat("0", 3) + string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune('0'+(i/10)%10)) + string(rune('0'+(i/100)%10))
		if SampleDevice(id, 0.1) != SampleDevice(id, 0.1) {
			t.Fatal("sampling decision not deterministic")
		}
		if SampleDevice(id, 0.1) {
			kept++
		}
	}
	// FNV over structured IDs is not perfectly uniform; accept a loose band.
	if kept < n/100 || kept > n/3 {
		t.Fatalf("rate 0.1 kept %d of %d devices", kept, n)
	}
	// A device kept at a low rate is kept at every higher rate.
	for i := 0; i < 100; i++ {
		id := "meter-" + strings.Repeat("x", i%7)
		if SampleDevice(id, 0.05) && !SampleDevice(id, 0.5) {
			t.Fatalf("device %q kept at 0.05 but dropped at 0.5", id)
		}
	}
}

func TestGraftAppendsAtEnd(t *testing.T) {
	qt := buildTrace(t)
	var before bytes.Buffer
	if err := qt.WriteJSONL(&before); err != nil {
		t.Fatal(err)
	}
	at := SimOrigin()
	srv := qt.Graft(nil, "server", PartyEngine, at, at)
	srv.SetAttr("querier", "edf")
	qt.Graft(srv, "queue-wait", PartyEngine, at, at)
	var after bytes.Buffer
	if err := qt.WriteJSONL(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(after.Bytes(), before.Bytes()) {
		t.Fatalf("grafted trace is not an extension of the original:\n%s\nvs\n%s", before.String(), after.String())
	}
	if srv.ID <= 3 || qt.Root.Children[len(qt.Root.Children)-1] != srv {
		t.Fatalf("graft minted ID %d or landed in the wrong place", srv.ID)
	}
	if srv.Children[0].Parent != srv.ID {
		t.Fatal("child graft not parented to the server span")
	}
	var nilQT *QueryTrace
	if nilQT.Graft(nil, "x", PartyEngine, at, at) != nil {
		t.Fatal("nil trace grafted a span")
	}
}
