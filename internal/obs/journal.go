package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sync"
	"time"
)

// The query journal is the structured, append-only companion of the span
// trace: one flat stream of canonical lifecycle events per query
// (admission, dispatch, phase boundaries, recovery-ledger entries,
// aborts, completion) with a stable JSONL schema. Where the trace is a
// tree meant for flame views, the journal is a log meant for ingestion —
// and, like the trace, it is stamped exclusively with simulated time so
// equal runs produce byte-identical files at any worker count.
//
// Leakage discipline: journal events carry the same payload shape as
// SSI-visible trace events (CipherFacts) plus a Detail string drawn from
// a bounded vocabulary (ledger kinds, abort reasons, protocol names,
// querier identifiers — all of which the SSI observes anyway). Never put
// query text or plaintext values in Detail.

// Canonical journal event kinds, in the order they appear in a healthy
// stream. CheckJournal validates against this vocabulary.
const (
	JournalAdmission  = "admission"   // server accepted the request into the queue
	JournalDispatch   = "dispatch"    // scheduler moved the request into flight
	JournalQueryStart = "query-start" // engine opened the run
	JournalPhaseStart = "phase-start" // a protocol phase began
	JournalPhaseEnd   = "phase-end"   // a protocol phase completed
	JournalLedger     = "ledger"      // mirror of a recovery-ledger entry (Detail = entry kind)
	JournalAbort      = "abort"       // run aborted (Detail = reason)
	JournalQueryEnd   = "query-end"   // run completed (Count = result rows)
)

// JournalEvent is one record of a query's journal stream.
type JournalEvent struct {
	Kind   string
	Phase  string // protocol phase name, "" when not phase-scoped
	Party  Party
	Device string // TDS identifier, "" when not device-scoped
	Detail string // bounded vocabulary: ledger kind, abort reason, protocol, querier
	At     time.Time
	Facts  CipherFacts
}

// QueryJournal is the finished (or in-flight) event stream of one query.
type QueryJournal struct {
	QueryID string
	Events  []JournalEvent
}

// Journal records journal streams keyed by query ID. Like Tracer, all
// methods are safe on a nil receiver (they no-op) and safe for
// concurrent use across queries. An optional gauge tracks the number of
// open streams, so tests can assert that withdrawn or failed requests
// do not leak journal state.
type Journal struct {
	mu     sync.Mutex
	active map[string]*QueryJournal
	open   *Gauge
}

// NewJournal returns an empty journal.
func NewJournal() *Journal {
	return &Journal{active: make(map[string]*QueryJournal)}
}

// SetOpenGauge registers a gauge that mirrors the number of open
// streams. Call before any Begin; nil-safe.
func (j *Journal) SetOpenGauge(g *Gauge) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.open = g
	j.mu.Unlock()
}

// Begin opens a stream for query id and reports whether it did. An
// already-open stream is kept (false), so the server can open at
// admission and the engine can re-open harmlessly at run start (or open
// fresh for direct Execute calls that never passed through a server).
func (j *Journal) Begin(id string) bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.active[id]; ok {
		return false
	}
	j.active[id] = &QueryJournal{QueryID: id}
	if j.open != nil {
		j.open.Add(1)
	}
	return true
}

// Emit appends an event to query id's stream; no-op when no stream is
// open (so emission sites never need lifecycle checks).
func (j *Journal) Emit(id string, e JournalEvent) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	qj := j.active[id]
	if qj == nil {
		return
	}
	qj.Events = append(qj.Events, e)
}

// Take removes and returns the finished stream for query id, or nil if
// none is open.
func (j *Journal) Take(id string) *QueryJournal {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	qj := j.active[id]
	if qj != nil {
		delete(j.active, id)
		if j.open != nil {
			j.open.Add(-1)
		}
	}
	return qj
}

// Discard drops any stream for query id (withdrawn or failed requests).
func (j *Journal) Discard(id string) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.active[id]; ok {
		delete(j.active, id)
		if j.open != nil {
			j.open.Add(-1)
		}
	}
}

// OpenStreams reports how many streams are currently open.
func (j *Journal) OpenStreams() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.active)
}

// journalLine is the JSONL wire form. Version first, then a per-stream
// sequence number, then the event fields; timestamps are nanosecond
// offsets from SimOrigin. No maps, no wall times: equal streams produce
// byte-identical output.
type journalLine struct {
	V       int    `json:"v"`
	Seq     int    `json:"seq"`
	Kind    string `json:"kind"`
	Phase   string `json:"phase,omitempty"`
	Party   string `json:"party"`
	Device  string `json:"device,omitempty"`
	Detail  string `json:"detail,omitempty"`
	AtNs    int64  `json:"at_ns"`
	Tuples  int    `json:"tuples,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"`
	Count   int    `json:"count,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	WaitNs  int64  `json:"wait_ns,omitempty"`
}

// WriteJSONL writes the stream as one JSON object per line in emission
// order.
func (qj *QueryJournal) WriteJSONL(w io.Writer) error {
	if qj == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for i, e := range qj.Events {
		if err := enc.Encode(journalLine{
			V: 1, Seq: i, Kind: e.Kind, Phase: e.Phase, Party: string(e.Party),
			Device: e.Device, Detail: e.Detail, AtNs: simNs(e.At),
			Tuples: e.Facts.Tuples, Bytes: e.Facts.Bytes, Count: e.Facts.Count,
			Attempt: e.Facts.Attempt, WaitNs: e.Facts.Wait.Nanoseconds(),
		}); err != nil {
			return err
		}
	}
	return nil
}

// Bytes renders the stream to a byte slice (test comparisons, byte
// budgets).
func (qj *QueryJournal) Bytes() []byte {
	var b bytes.Buffer
	_ = qj.WriteJSONL(&b)
	return b.Bytes()
}

// Counts tallies events by kind.
func (qj *QueryJournal) Counts() map[string]int {
	counts := make(map[string]int)
	if qj == nil {
		return counts
	}
	for _, e := range qj.Events {
		counts[e.Kind]++
	}
	return counts
}

var journalKinds = map[string]bool{
	JournalAdmission: true, JournalDispatch: true,
	JournalQueryStart: true, JournalPhaseStart: true, JournalPhaseEnd: true,
	JournalLedger: true, JournalAbort: true, JournalQueryEnd: true,
}

// CheckJournal validates one journal stream in JSONL form: every line
// parses, carries schema version 1, a gapless zero-based sequence, a
// kind from the canonical vocabulary, a valid party, and non-negative
// timestamps; phase-end events never outnumber phase-start events for
// the same phase name; and the stream is terminal — its last event is
// query-end or abort, with every phase closed on the query-end path
// (aborts may leave phases open). It is the journal counterpart of
// CheckText, so -journal-out files can be gate-checked without
// dependencies.
func CheckJournal(r io.Reader) error {
	partyOK := map[string]bool{
		string(PartyEngine): true, string(PartySSI): true,
		string(PartyTDS): true, string(PartyQuerier): true,
	}
	detailRe := regexp.MustCompile(`^[a-zA-Z0-9_.:-]*$`)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	lastKind := ""
	starts := make(map[string]int) // phase name -> open starts
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec journalLine
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rec); err != nil {
			return fmt.Errorf("line %d: not a journal record: %v", lineNo+1, err)
		}
		if rec.V != 1 {
			return fmt.Errorf("line %d: unknown schema version %d", lineNo+1, rec.V)
		}
		if rec.Seq != lineNo {
			return fmt.Errorf("line %d: sequence %d, want %d", lineNo+1, rec.Seq, lineNo)
		}
		if !journalKinds[rec.Kind] {
			return fmt.Errorf("line %d: unknown kind %q", lineNo+1, rec.Kind)
		}
		if !partyOK[rec.Party] {
			return fmt.Errorf("line %d: unknown party %q", lineNo+1, rec.Party)
		}
		if rec.AtNs < 0 {
			return fmt.Errorf("line %d: negative timestamp %d", lineNo+1, rec.AtNs)
		}
		if !detailRe.MatchString(rec.Detail) {
			return fmt.Errorf("line %d: detail %q outside the bounded vocabulary", lineNo+1, rec.Detail)
		}
		switch rec.Kind {
		case JournalPhaseStart:
			starts[rec.Phase]++
		case JournalPhaseEnd:
			if starts[rec.Phase] <= 0 {
				return fmt.Errorf("line %d: phase-end %q without a matching phase-start", lineNo+1, rec.Phase)
			}
			starts[rec.Phase]--
		}
		lastKind = rec.Kind
		lineNo++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if lineNo == 0 {
		return fmt.Errorf("journal is empty")
	}
	if lastKind != JournalQueryEnd && lastKind != JournalAbort {
		return fmt.Errorf("journal does not terminate: last event is %q", lastKind)
	}
	if lastKind == JournalQueryEnd {
		for phase, n := range starts {
			if n != 0 {
				return fmt.Errorf("completed journal left phase %q open", phase)
			}
		}
	}
	return nil
}
