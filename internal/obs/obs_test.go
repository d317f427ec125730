package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestSimClockMonotone(t *testing.T) {
	c := NewSimClock(SimOrigin())
	c.Advance(3 * time.Second)
	c.Advance(-time.Hour) // ignored: simulated time never rewinds
	if got := c.Now().Sub(SimOrigin()); got != 3*time.Second {
		t.Fatalf("clock at +%v, want +3s", got)
	}
	c.AdvanceTo(SimOrigin().Add(time.Second)) // earlier: ignored
	c.AdvanceTo(SimOrigin().Add(5 * time.Second))
	if got := c.Now().Sub(SimOrigin()); got != 5*time.Second {
		t.Fatalf("clock at +%v, want +5s", got)
	}
}

func buildTrace(t *testing.T) *QueryTrace {
	t.Helper()
	tr := NewTracer()
	at := SimOrigin()
	tr.StartQuery("q", "execute", at)
	tr.StartChild("q", "collect", PartyEngine, at)
	tr.SSIEvent("q", "deposit", "tds-1", at.Add(time.Millisecond),
		CipherFacts{Tuples: 4, Bytes: 256})
	tr.EndSpan("q", at.Add(2*time.Millisecond))
	sp := tr.StartChild("q", "filtering", PartyEngine, at.Add(2*time.Millisecond))
	sp.SetAttr("groups", "5")
	tr.EndSpan("q", at.Add(3*time.Millisecond))
	tr.EndSpan("q", at.Add(3*time.Millisecond))
	qt := tr.Take("q")
	if qt == nil {
		t.Fatal("Take returned nil")
	}
	return qt
}

func TestTracerTreeAndJSONL(t *testing.T) {
	qt := buildTrace(t)
	if len(qt.Root.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(qt.Root.Children))
	}
	var buf bytes.Buffer
	if err := qt.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // 3 spans + 1 event
		t.Fatalf("got %d JSONL lines, want 4:\n%s", len(lines), buf.String())
	}
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %q: %v", ln, err)
		}
		if m["type"] != "span" && m["type"] != "event" {
			t.Fatalf("line %q: unexpected type %v", ln, m["type"])
		}
	}
	if !strings.Contains(buf.String(), `"device":"tds-1"`) {
		t.Fatalf("event device missing from JSONL:\n%s", buf.String())
	}
	// Identical construction must be byte-identical.
	var buf2 bytes.Buffer
	if err := buildTrace(t).WriteJSONL(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("two identical traces serialized differently")
	}
	sum := qt.Summary()
	if !strings.Contains(sum, "execute") || !strings.Contains(sum, "deposit=1") {
		t.Fatalf("summary missing content:\n%s", sum)
	}
}

func TestSSISpanRefusesAttrs(t *testing.T) {
	tr := NewTracer()
	tr.StartQuery("q", "execute", SimOrigin())
	sp := tr.StartChild("q", "store", PartySSI, SimOrigin())
	sp.SetAttr("district", "Paris") // must be dropped: SSI side is facts-only
	if len(sp.Attrs) != 0 {
		t.Fatalf("SSI span accepted attrs: %v", sp.Attrs)
	}
}

// TestTraceEventAllocBudget: the 2000 events of a span that reserved room
// for them go into one array, where growing the span as they arrive
// re-allocates it at every step of append's growth — 14 times, some four
// times the bytes the events hold.
func TestTraceEventAllocBudget(t *testing.T) {
	tr, at := NewTracer(), SimOrigin()
	allocs := testing.AllocsPerRun(5, func() {
		tr.StartQuery("q", "execute", at)
		tr.Reserve("q", 2000)
		for i := 0; i < 2000; i++ {
			tr.SSIEvent("q", "deposit", "tds", at, CipherFacts{Tuples: 1})
		}
		tr.Discard("q")
	})
	// Measured at 4: the query's trace, its root span, the open-span stack
	// and the event array; 5 under the race detector. Unreserved: 18.
	if allocs > 6 {
		t.Errorf("recording 2000 events into a reserved span allocates %v times, budget 6", allocs)
	}
}
