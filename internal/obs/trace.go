package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"accelscore/internal/sim"
)

// Tracer assigns trace IDs and retains the most recent traces in a bounded
// ring, serving /debug/queries (recent list) and /debug/trace/<id>
// (Chrome trace-event download). Safe for concurrent use; a nil *Tracer is a
// no-op.
type Tracer struct {
	mu       sync.Mutex
	next     uint64
	capacity int
	order    []*Trace // oldest first
	byID     map[string]*Trace
}

// DefaultTraceCapacity is the ring size used when NewTracer gets
// capacity <= 0.
const DefaultTraceCapacity = 128

// NewTracer returns a tracer retaining at most capacity traces.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{capacity: capacity, byID: make(map[string]*Trace)}
}

// Start begins a new trace with a fresh ID ("q-000001", ...). The oldest
// trace falls out of the ring once capacity is exceeded.
func (t *Tracer) Start(name string) *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	tr := &Trace{
		id:    fmt.Sprintf("q-%06d", t.next),
		name:  name,
		start: time.Now(),
		attrs: make(map[string]string),
	}
	t.order = append(t.order, tr)
	t.byID[tr.id] = tr
	for len(t.order) > t.capacity {
		old := t.order[0]
		t.order = t.order[1:]
		delete(t.byID, old.id)
	}
	return tr
}

// Get returns the retained trace with the given ID.
func (t *Tracer) Get(id string) (*Trace, bool) {
	if t == nil {
		return nil, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr, ok := t.byID[id]
	return tr, ok
}

// Recent returns the retained traces, newest first.
func (t *Tracer) Recent() []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Trace, len(t.order))
	for i, tr := range t.order {
		out[len(t.order)-1-i] = tr
	}
	return out
}

// Capacity returns the ring size; a nil tracer reports 0.
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return t.capacity
}

// Len returns the number of retained traces.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.order)
}

// wallSpan is a real (measured) span relative to the trace start. track is
// empty for the main wall-clock track; a named track groups related spans
// (e.g. one track per shard of a scatter-gather fan-out) onto its own lane
// in the exported trace.
type wallSpan struct {
	name   string
	track  string
	offset time.Duration
	dur    time.Duration
}

// simTrack is one named sim.Timeline recorded on the trace (e.g. the Fig. 11
// end-to-end breakdown and the backend's Fig. 7 scoring detail).
type simTrack struct {
	name  string
	spans []sim.Span
}

// Trace is one query's record: a wall-clock track measured with real
// timestamps plus any number of simulated-timeline tracks, with string
// attributes (model, backend, error). All methods are safe on a nil receiver
// so instrumented code needs no observer guards.
type Trace struct {
	id    string
	name  string
	start time.Time

	mu     sync.Mutex
	attrs  map[string]string
	wall   []wallSpan
	tracks []simTrack
	costs  Attribution
	total  time.Duration
	done   bool
}

// ID returns the tracer-assigned identifier.
func (tr *Trace) ID() string {
	if tr == nil {
		return ""
	}
	return tr.id
}

// Name returns the trace name given to Tracer.Start.
func (tr *Trace) Name() string {
	if tr == nil {
		return ""
	}
	return tr.name
}

// StartSpan opens a wall-clock span; the returned closer records it.
func (tr *Trace) StartSpan(name string) func() {
	return tr.StartSpanOn("", name)
}

// StartSpanOn opens a wall-clock span on a named track. Spans sharing a
// track render on one lane in the Chrome export, so a scatter-gather query
// can record one track per shard ("shard 0", "shard 1", ...) and the
// straggler gap is visible as the ragged right edge across lanes. An empty
// track is the main wall-clock track.
func (tr *Trace) StartSpanOn(track, name string) func() {
	if tr == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() {
		d := time.Since(t0)
		tr.mu.Lock()
		defer tr.mu.Unlock()
		tr.wall = append(tr.wall, wallSpan{name: name, track: track, offset: t0.Sub(tr.start), dur: d})
	}
}

// SetAttr records a string attribute shown in the trace viewer and the
// /debug/queries listing.
func (tr *Trace) SetAttr(k, v string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.attrs[k] = v
}

// AddTimeline records a simulated timeline as a named track; spans are laid
// out sequentially from the track origin in the exported trace.
func (tr *Trace) AddTimeline(track string, tl *sim.Timeline) {
	if tr == nil || tl == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.tracks = append(tr.tracks, simTrack{name: track, spans: tl.Spans()})
}

// SetStageCosts records the query's per-stage resource attribution. The
// costs surface in Snapshot, /debug/queries, and as args on the matching
// wall-clock spans of the Chrome trace export.
func (tr *Trace) SetStageCosts(costs Attribution) {
	if tr == nil || len(costs) == 0 {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.costs = append(Attribution(nil), costs...)
}

// Finish seals the trace, fixing its wall-clock total. Idempotent.
func (tr *Trace) Finish() {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if !tr.done {
		tr.total = time.Since(tr.start)
		tr.done = true
	}
}

// WallSpanSnapshot is one measured span in a snapshot. Track is empty for
// the main wall-clock lane.
type WallSpanSnapshot struct {
	Name     string
	Track    string
	Offset   time.Duration
	Duration time.Duration
}

// TrackSnapshot is one simulated track in a snapshot.
type TrackSnapshot struct {
	Name  string
	Spans []sim.Span
	Total time.Duration
}

// TraceSnapshot is a consistent copy of a trace for rendering.
type TraceSnapshot struct {
	ID        string
	Name      string
	Start     time.Time
	Wall      time.Duration
	Done      bool
	Attrs     map[string]string
	WallSpans []WallSpanSnapshot
	Tracks    []TrackSnapshot
	// Costs is the per-stage resource attribution, when recorded.
	Costs Attribution
}

// Snapshot copies the trace state under its lock.
func (tr *Trace) Snapshot() TraceSnapshot {
	if tr == nil {
		return TraceSnapshot{}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	snap := TraceSnapshot{
		ID:    tr.id,
		Name:  tr.name,
		Start: tr.start,
		Wall:  tr.total,
		Done:  tr.done,
		Attrs: make(map[string]string, len(tr.attrs)),
	}
	if !tr.done {
		snap.Wall = time.Since(tr.start)
	}
	for k, v := range tr.attrs {
		snap.Attrs[k] = v
	}
	for _, w := range tr.wall {
		snap.WallSpans = append(snap.WallSpans,
			WallSpanSnapshot{Name: w.name, Track: w.track, Offset: w.offset, Duration: w.dur})
	}
	for _, trk := range tr.tracks {
		ts := TrackSnapshot{Name: trk.name, Spans: append([]sim.Span(nil), trk.spans...)}
		for _, s := range trk.spans {
			ts.Total += s.Duration
		}
		snap.Tracks = append(snap.Tracks, ts)
	}
	snap.Costs = append(Attribution(nil), tr.costs...)
	return snap
}

// chromeEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeTrace is the JSON-object envelope of the trace-event format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// micros converts a duration to the format's microsecond floats.
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// chromeEvents renders one trace under the given pid: tid 1 is the measured
// wall-clock track, tids 2+ are the simulated timelines laid out
// sequentially, each sim span categorized by its O/L/C kind so the Fig. 6
// taxonomy is filterable in the viewer. Named wall tracks (per-shard
// fan-out lanes from StartSpanOn) follow the sim tracks, in order of first
// appearance, positioned at their real measured offsets.
func (snap TraceSnapshot) chromeEvents(pid int) []chromeEvent {
	evs := []chromeEvent{
		{Name: "process_name", Ph: "M", PID: pid, Args: map[string]string{"name": snap.ID + " " + snap.Name}},
		{Name: "thread_name", Ph: "M", PID: pid, TID: 1, Args: map[string]string{"name": "wall clock"}},
		{Name: snap.Name, Cat: "query", Ph: "i", PID: pid, TID: 1, Args: snap.Attrs},
	}
	// Wall spans carry the measured resource attribution of their stage as
	// args, so a span selected in the viewer shows CPU time, allocations
	// and bytes moved alongside its duration.
	costByStage := make(map[string]StageCost, len(snap.Costs))
	for _, c := range snap.Costs {
		costByStage[c.Stage] = c
	}
	wallTracks := make(map[string]int) // named track -> tid
	var wallOrder []string
	for _, w := range snap.WallSpans {
		if w.Track != "" {
			if _, ok := wallTracks[w.Track]; !ok {
				wallTracks[w.Track] = 0
				wallOrder = append(wallOrder, w.Track)
			}
			continue
		}
		ev := chromeEvent{
			Name: w.Name, Cat: "wall", Ph: "X",
			TS: micros(w.Offset), Dur: micros(w.Duration), PID: pid, TID: 1,
		}
		if c, ok := costByStage[w.Name]; ok {
			ev.Args = c.args()
		}
		evs = append(evs, ev)
	}
	for i, trk := range snap.Tracks {
		tid := 2 + i
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", PID: pid, TID: tid,
			Args: map[string]string{"name": trk.Name},
		})
		var cursor time.Duration
		for _, s := range trk.Spans {
			evs = append(evs, chromeEvent{
				Name: s.Name, Cat: s.Kind.String(), Ph: "X",
				TS: micros(cursor), Dur: micros(s.Duration), PID: pid, TID: tid,
			})
			cursor += s.Duration
		}
	}
	for i, name := range wallOrder {
		wallTracks[name] = 2 + len(snap.Tracks) + i
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", PID: pid, TID: wallTracks[name],
			Args: map[string]string{"name": name},
		})
	}
	for _, w := range snap.WallSpans {
		if w.Track == "" {
			continue
		}
		evs = append(evs, chromeEvent{
			Name: w.Name, Cat: "wall", Ph: "X",
			TS: micros(w.Offset), Dur: micros(w.Duration), PID: pid, TID: wallTracks[w.Track],
		})
	}
	return evs
}

// WriteChromeTrace writes the single trace as Chrome trace-event JSON.
func (tr *Trace) WriteChromeTrace(w io.Writer) error {
	if tr == nil {
		return fmt.Errorf("obs: nil trace")
	}
	return writeChrome(w, tr.Snapshot().chromeEvents(1))
}

// WriteChromeTrace writes every retained trace into one trace-event file,
// one process per trace (oldest first), so a whole figure run or serving
// window can be inspected side by side.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: nil tracer")
	}
	t.mu.Lock()
	traces := append([]*Trace(nil), t.order...)
	t.mu.Unlock()
	var evs []chromeEvent
	for i, tr := range traces {
		evs = append(evs, tr.Snapshot().chromeEvents(i+1)...)
	}
	return writeChrome(w, evs)
}

func writeChrome(w io.Writer, evs []chromeEvent) error {
	if evs == nil {
		evs = []chromeEvent{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeTrace{TraceEvents: evs, DisplayTimeUnit: "ms"})
}
