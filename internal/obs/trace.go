package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// Party identifies which side of the trust boundary recorded a span or
// event. The distinction matters for the leakage audit: everything
// tagged PartySSI is, by construction, information the honest-but-
// curious infrastructure actually observes.
type Party string

const (
	PartyEngine  Party = "engine"
	PartySSI     Party = "ssi"
	PartyTDS     Party = "tds"
	PartyQuerier Party = "querier"
)

// CipherFacts is the only payload an SSI-side event can carry: counts,
// sizes and timings of ciphertext traffic. There is deliberately no
// string or interface field, so plaintext attributes and group keys
// cannot reach an SSI event without a type error — the honest-but-
// curious model is guarded at the type level, not by review.
type CipherFacts struct {
	Tuples  int           // ciphertext tuples seen
	Bytes   int64         // ciphertext bytes seen
	Count   int           // auxiliary count (partitions, attempts, ...)
	Attempt int           // delivery attempt number
	Wait    time.Duration // billed retry/backoff wait
}

// Event is a point-in-time observation attached to the span that was
// open when it happened.
type Event struct {
	Name   string
	Party  Party
	Device string // TDS identifier, "" when not device-scoped
	At     time.Time
	Facts  CipherFacts
}

// Attr is a key/value annotation on a span.
type Attr struct {
	Key string `json:"k"`
	Val string `json:"v"`
}

// Span is one timed node of a query's trace tree.
type Span struct {
	ID       int
	Parent   int
	Name     string
	Party    Party
	Start    time.Time
	End      time.Time
	Attrs    []Attr
	Events   []Event
	Children []*Span
}

// SetAttr annotates the span. On SSI-party spans it is a no-op: the
// free-form key/value channel is reserved for the trusted side, so the
// SSI trace stays restricted to CipherFacts. Returns the span for
// chaining. Nil-safe.
func (s *Span) SetAttr(key, val string) *Span {
	if s == nil || s.Party == PartySSI {
		return s
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Val: val})
	return s
}

// QueryTrace is the finished (or in-flight) span tree of one query.
type QueryTrace struct {
	QueryID string
	Root    *Span

	stack  []*Span // open spans, Root first
	nextID int
}

// Tracer records span trees keyed by query ID, safe for concurrent use
// across queries.
type Tracer struct {
	mu     sync.Mutex
	active map[string]*QueryTrace
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{active: make(map[string]*QueryTrace)}
}

// StartQuery opens the root span for query id at the given simulated
// instant, replacing any stale trace under the same id.
func (t *Tracer) StartQuery(id, name string, at time.Time) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	root := &Span{ID: 1, Name: name, Party: PartyEngine, Start: at}
	t.active[id] = &QueryTrace{QueryID: id, Root: root, stack: []*Span{root}, nextID: 2}
	return root
}

// StartChild opens a child span under the innermost open span of query
// id.
func (t *Tracer) StartChild(id, name string, party Party, at time.Time) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	qt := t.active[id]
	if qt == nil || len(qt.stack) == 0 {
		return nil
	}
	parent := qt.stack[len(qt.stack)-1]
	s := &Span{ID: qt.nextID, Parent: parent.ID, Name: name, Party: party, Start: at}
	qt.nextID++
	parent.Children = append(parent.Children, s)
	qt.stack = append(qt.stack, s)
	return s
}

// EndSpan closes the innermost open span of query id.
func (t *Tracer) EndSpan(id string, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	qt := t.active[id]
	if qt == nil || len(qt.stack) == 0 {
		return
	}
	s := qt.stack[len(qt.stack)-1]
	s.End = at
	qt.stack = qt.stack[:len(qt.stack)-1]
}

// Event attaches e to the innermost open span of query id.
func (t *Tracer) Event(id string, e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	qt := t.active[id]
	if qt == nil || len(qt.stack) == 0 {
		return
	}
	s := qt.stack[len(qt.stack)-1]
	s.Events = append(s.Events, e)
}

// Reserve makes room for n more events in the innermost open span of query
// id, so a phase that knows how many it is about to record grows it once.
func (t *Tracer) Reserve(id string, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if qt := t.active[id]; qt != nil && len(qt.stack) > 0 {
		s := qt.stack[len(qt.stack)-1]
		s.Events = slices.Grow(s.Events, n)
	}
}

// SSIEvent records an SSI-visible event. The CipherFacts-only signature
// is the type-level leakage guard: sizes, counts and timings can pass,
// plaintext cannot.
func (t *Tracer) SSIEvent(id, name, device string, at time.Time, f CipherFacts) {
	t.Event(id, Event{Name: name, Party: PartySSI, Device: device, At: at, Facts: f})
}

// EngineEvent records a trusted-side event.
func (t *Tracer) EngineEvent(id, name, device string, at time.Time, f CipherFacts) {
	t.Event(id, Event{Name: name, Party: PartyEngine, Device: device, At: at, Facts: f})
}

// CloseAll closes every open span of query id at the given instant —
// the abort path, where a failure deep inside a phase must still leave a
// well-formed span tree for the returned trace.
func (t *Tracer) CloseAll(id string, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	qt := t.active[id]
	if qt == nil {
		return
	}
	for i := len(qt.stack) - 1; i >= 0; i-- {
		qt.stack[i].End = at
	}
	qt.stack = qt.stack[:0]
}

// Take removes and returns the finished trace for query id, or nil if
// none is active.
func (t *Tracer) Take(id string) *QueryTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	qt := t.active[id]
	delete(t.active, id)
	return qt
}

// Discard drops any trace state for query id (error paths).
func (t *Tracer) Discard(id string) {
	t.mu.Lock()
	delete(t.active, id)
	t.mu.Unlock()
}

// spanLine and eventLine are the JSONL wire forms. Timestamps are
// nanosecond offsets from SimOrigin, so files from different runs diff
// cleanly.
type spanLine struct {
	Type    string `json:"type"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Party   string `json:"party"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

type eventLine struct {
	Type    string `json:"type"`
	Span    int    `json:"span"`
	Name    string `json:"name"`
	Party   string `json:"party"`
	Device  string `json:"device,omitempty"`
	AtNs    int64  `json:"at_ns"`
	Tuples  int    `json:"tuples,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"`
	Count   int    `json:"count,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	WaitNs  int64  `json:"wait_ns,omitempty"`
}

func simNs(at time.Time) int64 {
	if at.IsZero() {
		return 0
	}
	return at.Sub(SimOrigin()).Nanoseconds()
}

// WriteJSONL writes the trace as one JSON object per line: each span
// depth-first in creation order, immediately followed by its events.
// The encoding has no maps and no wall times, so equal trees produce
// byte-identical output.
func (qt *QueryTrace) WriteJSONL(w io.Writer) error {
	if qt == nil || qt.Root == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	var walk func(s *Span) error
	walk = func(s *Span) error {
		if err := enc.Encode(spanLine{
			Type: "span", ID: s.ID, Parent: s.Parent, Name: s.Name,
			Party: string(s.Party), StartNs: simNs(s.Start), EndNs: simNs(s.End),
			Attrs: s.Attrs,
		}); err != nil {
			return err
		}
		for _, e := range s.Events {
			if err := enc.Encode(eventLine{
				Type: "event", Span: s.ID, Name: e.Name, Party: string(e.Party),
				Device: e.Device, AtNs: simNs(e.At),
				Tuples: e.Facts.Tuples, Bytes: e.Facts.Bytes, Count: e.Facts.Count,
				Attempt: e.Facts.Attempt, WaitNs: e.Facts.Wait.Nanoseconds(),
			}); err != nil {
				return err
			}
		}
		for _, c := range s.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(qt.Root)
}

// Walk visits every span depth-first in creation order.
func (qt *QueryTrace) Walk(fn func(*Span)) {
	if qt == nil || qt.Root == nil {
		return
	}
	var rec func(*Span)
	rec = func(s *Span) {
		fn(s)
		for _, c := range s.Children {
			rec(c)
		}
	}
	rec(qt.Root)
}

// EventCounts tallies events by name across the whole tree.
func (qt *QueryTrace) EventCounts() map[string]int {
	counts := make(map[string]int)
	qt.Walk(func(s *Span) {
		for _, e := range s.Events {
			counts[e.Name]++
		}
	})
	return counts
}

// Summary renders the span tree as an indented ASCII table — a poor
// man's flame view over simulated time — followed by per-event-kind
// totals. Deterministic: tree order is creation order, event kinds are
// sorted.
func (qt *QueryTrace) Summary() string {
	if qt == nil || qt.Root == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s (simulated time, origin %s)\n", qt.QueryID, SimOrigin().UTC().Format(time.RFC3339))
	total := qt.Root.End.Sub(qt.Root.Start)
	var render func(s *Span, depth int)
	render = func(s *Span, depth int) {
		d := s.End.Sub(s.Start)
		bar := ""
		if total > 0 && d >= 0 {
			n := int(20 * d / total)
			if n > 20 {
				n = 20
			}
			bar = strings.Repeat("#", n)
		}
		fmt.Fprintf(&b, "  %-36s %12s  %-8s ev=%-4d %s\n",
			strings.Repeat("· ", depth)+s.Name, d, s.Party, len(s.Events), bar)
		for _, c := range s.Children {
			render(c, depth+1)
		}
	}
	render(qt.Root, 0)
	counts := qt.EventCounts()
	if len(counts) > 0 {
		names := make([]string, 0, len(counts))
		for n := range counts {
			names = append(names, n)
		}
		sort.Strings(names)
		b.WriteString("  events:")
		for _, n := range names {
			fmt.Fprintf(&b, " %s=%d", n, counts[n])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
