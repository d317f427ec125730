package main

import (
	"bufio"
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/trustedcells/tcq/internal/obs"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/ssi"
)

// span is one timed call across a layer boundary, as written to
// out/<workload>.trace.jsonl. Times are nanoseconds since the recorder
// was created. A query's root span (layer "core", name "execute") is the
// harness's own Execute call; its children are the SSI calls the engine
// made underneath, and the kernel replays hang under span 0.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Query   string `json:"query"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Count   int    `json:"count"`
}

// packed is a span as kept in memory: pointer-free, so the garbage
// collector never scans the store and recording perturbs the traced
// queries as little as it can. Query and label index the recorder's
// side tables.
type packed struct {
	parent, query, label, count int32
	start, end                  int64
}

// label is a span's layer and name.
type label struct{ layer, name string }

// spanCap preallocates the span store so recording does not reallocate
// inside a timed query: the widest traced pass makes about 5000 SSI calls
// per query over 30 queries.
const spanCap = 1 << 18

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []packed
	labels  []label
	queries []string
	root    int32 // open root span; SSI calls become its children
	query   int32 // index of the query new spans belong to; -1 before the first

	// The first traced query's inputs to the lower layers, kept for the
	// kernel replays.
	capture  string // its QueryID
	post     *protocol.QueryPost
	deposits []*protocol.Deposit
	parts    [][]protocol.WireTuple // first PartitionByTag/PartitionRandom build
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]packed, 0, spanCap), query: -1}
}

func (r *recorder) now() int64 { return time.Since(r.epoch).Nanoseconds() }

// labelOf interns a layer and name.
func (r *recorder) labelOf(layer, name string) int32 {
	for i, l := range r.labels {
		if l.layer == layer && l.name == name {
			return int32(i)
		}
	}
	r.labels = append(r.labels, label{layer, name})
	return int32(len(r.labels) - 1)
}

// add files a span that started at start and ends now, under the open
// root (or under span 0 when none is open), and returns its duration.
func (r *recorder) add(lbl int32, start int64, count int) int64 {
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, packed{parent: r.root, query: r.query,
		label: lbl, count: int32(count), start: start, end: end})
	return end - start
}

// beginRoot opens a query's root span; the traced pass runs one query at
// a time, so one open root is all there is.
func (r *recorder) beginRoot(query string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.queries = append(r.queries, query)
	r.query = int32(len(r.queries) - 1)
	r.spans = append(r.spans, packed{query: r.query,
		label: r.labelOf("core", "execute"), start: r.now()})
	r.root = int32(len(r.spans))
	if r.capture == "" {
		r.capture = query
	}
}

func (r *recorder) endRoot() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[r.root-1].end = r.now()
	r.root = 0
}

// span unpacks the i-th recorded span; IDs are 1-based positions.
func (r *recorder) span(i int) span {
	p := r.spans[i]
	l := r.labels[p.label]
	sp := span{ID: i + 1, Parent: int(p.parent), Layer: l.layer, Name: l.name,
		StartNs: p.start, EndNs: p.end, Count: int(p.count)}
	if p.query >= 0 {
		sp.Query = r.queries[p.query]
	}
	return sp
}

// write dumps every span as one JSON object per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(r.span(i)); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// interval is a half-open [start, end) stretch of the recorder's clock.
type interval struct{ start, end int64 }

// unionLen is the total length the intervals cover, overlaps counted
// once. A layer's self time is its span's duration minus the union of
// its children's intervals.
func unionLen(ivs []interval) int64 {
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total, end int64
	for i, iv := range s {
		if i == 0 || iv.start > end {
			total += iv.end - iv.start
			end = iv.end
		} else if iv.end > end {
			total += iv.end - end
			end = iv.end
		}
	}
	return total
}

// spanSSI decorates an ssi.Service with span recording. It embeds the
// interface, so every method it does not override — the streaming
// partition facet, the epoch policy — forwards untouched; it overrides
// only the Store facet and the two explicit partition builders. The
// groups the spans are named after: deposit, partition, read, other.
type spanSSI struct {
	ssi.Service
	rec *recorder

	deposit, rejected, partition, read, other int32 // interned labels
}

func newSpanSSI(inner ssi.Service, rec *recorder) *spanSSI {
	return &spanSSI{
		Service: inner, rec: rec,
		deposit:   rec.labelOf("ssi", "deposit"),
		rejected:  rec.labelOf("ssi", "deposit-rejected"),
		partition: rec.labelOf("ssi", "partition"),
		read:      rec.labelOf("ssi", "read"),
		other:     rec.labelOf("ssi", "other"),
	}
}

// WithTracer and WithJournal forward the engine's observability hooks,
// which it offers through type assertions the embedding would hide.
func (s *spanSSI) WithTracer(tr *obs.Tracer) {
	if tw, ok := s.Service.(interface{ WithTracer(*obs.Tracer) }); ok {
		tw.WithTracer(tr)
	}
}

func (s *spanSSI) WithJournal(j *obs.Journal) {
	if jw, ok := s.Service.(interface{ WithJournal(*obs.Journal) }); ok {
		jw.WithJournal(j)
	}
}

// capturing reports whether id is the query whose inputs are kept.
func (s *spanSSI) capturing(id string) bool { return id == s.rec.capture }

func (s *spanSSI) keepDeposit(dep *protocol.Deposit) {
	// The engine recycles envelopes across waves; keep a copy. The tuple
	// bytes themselves are never rewritten once sealed.
	cp := *dep
	cp.Tuples = append([]protocol.WireTuple(nil), dep.Tuples...)
	s.rec.deposits = append(s.rec.deposits, &cp)
}

func (s *spanSSI) PostQuery(post *protocol.QueryPost, now time.Time) error {
	t0 := s.rec.now()
	err := s.Service.PostQuery(post, now)
	s.rec.add(s.other, t0, 1)
	if s.capturing(post.ID) {
		s.rec.post = post
	}
	return err
}

func (s *spanSSI) DepositEnvelope(id string, dep *protocol.Deposit, now time.Time) (int, bool, error) {
	t0 := s.rec.now()
	accepted, done, err := s.Service.DepositEnvelope(id, dep, now)
	lbl := s.deposit
	if err != nil {
		lbl = s.rejected
	}
	s.rec.add(lbl, t0, 1)
	if s.capturing(id) && err == nil {
		s.keepDeposit(dep)
	}
	return accepted, done, err
}

func (s *spanSSI) DepositEnvelopeBatch(id string, deps []*protocol.Deposit, now time.Time) ([]ssi.DepositOutcome, int, bool, error) {
	t0 := s.rec.now()
	out, doneAt, done, err := s.Service.DepositEnvelopeBatch(id, deps, now)
	rejected := 0
	for i, o := range out {
		if o.Err != nil {
			rejected++
		} else if s.capturing(id) {
			s.keepDeposit(deps[i])
		}
	}
	s.rec.add(s.deposit, t0, len(out)-rejected)
	if rejected > 0 {
		s.rec.add(s.rejected, s.rec.now(), rejected)
	}
	return out, doneAt, done, err
}

func (s *spanSSI) CollectionDone(id string, now time.Time) bool {
	t0 := s.rec.now()
	out := s.Service.CollectionDone(id, now)
	s.rec.add(s.read, t0, 1)
	return out
}

func (s *spanSSI) CollectedTuples(id string) []protocol.WireTuple {
	t0 := s.rec.now()
	out := s.Service.CollectedTuples(id)
	s.rec.add(s.read, t0, len(out))
	return out
}

func (s *spanSSI) CollectedCount(id string) int {
	t0 := s.rec.now()
	out := s.Service.CollectedCount(id)
	s.rec.add(s.read, t0, 1)
	return out
}

func (s *spanSSI) CollectedRange(id string, start, end int) []protocol.WireTuple {
	t0 := s.rec.now()
	out := s.Service.CollectedRange(id, start, end)
	s.rec.add(s.read, t0, len(out))
	return out
}

func (s *spanSSI) ObserveRelay(id string, tuples []protocol.WireTuple, at time.Time) {
	t0 := s.rec.now()
	s.Service.ObserveRelay(id, tuples, at)
	s.rec.add(s.other, t0, len(tuples))
}

func (s *spanSSI) Record(id string, e ssi.LedgerEntry) {
	t0 := s.rec.now()
	s.Service.Record(id, e)
	s.rec.add(s.other, t0, 1)
}

func (s *spanSSI) LedgerFor(id string) []ssi.LedgerEntry {
	t0 := s.rec.now()
	out := s.Service.LedgerFor(id)
	s.rec.add(s.read, t0, len(out))
	return out
}

func (s *spanSSI) ObservationFor(id string) ssi.Observation {
	t0 := s.rec.now()
	out := s.Service.ObservationFor(id)
	s.rec.add(s.read, t0, 1)
	return out
}

func (s *spanSSI) BytesStored(id string) int64 {
	t0 := s.rec.now()
	out := s.Service.BytesStored(id)
	s.rec.add(s.read, t0, 1)
	return out
}

func (s *spanSSI) Drop(id string) {
	t0 := s.rec.now()
	s.Service.Drop(id)
	s.rec.add(s.other, t0, 1)
}

func (s *spanSSI) PartitionRandom(id string, tuples []protocol.WireTuple, perPartition int, rng *rand.Rand) [][]protocol.WireTuple {
	t0 := s.rec.now()
	out := s.Service.PartitionRandom(id, tuples, perPartition, rng)
	s.partitioned(id, t0, out)
	return out
}

func (s *spanSSI) PartitionByTag(id string, tuples []protocol.WireTuple, maxPerPartition int) [][]protocol.WireTuple {
	t0 := s.rec.now()
	out := s.Service.PartitionByTag(id, tuples, maxPerPartition)
	s.partitioned(id, t0, out)
	return out
}

func (s *spanSSI) partitioned(id string, t0 int64, parts [][]protocol.WireTuple) {
	s.rec.add(s.partition, t0, len(parts))
	if s.capturing(id) && s.rec.parts == nil {
		s.rec.parts = parts
	}
}
