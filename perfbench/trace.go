package main

// Tracing for the --trace 1 run. The broker's lower layers are reached
// through two seams it already exposes: pubsub.New takes an
// engine.Engine and pubsub.WithStore takes a state.Store. The decorators
// below wrap the real core.Tree and state.WAL, so every engine and
// journal call the broker makes is timed without touching the program.
// Spans stay in memory and are written out when the run ends.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"drtree/internal/core"
	"drtree/internal/engine"
	"drtree/internal/geom"
	"drtree/internal/state"
)

// maxSpans bounds the in-memory span log (~60 MB); later spans are
// counted but not kept.
const maxSpans = 1 << 20

// span is one timed call. Top-level spans are the benchmark's own
// operations (a PublishBatch, an UpdateFilter); their parent is 0.
// Layer spans carry the ID of the operation that caused them, or 0 for
// work the broker runs in the background (checkpoints).
type span struct {
	id, parent uint64
	name       string
	start, end int64 // nanoseconds since the recorder's epoch
}

func (s span) dur() int64 { return s.end - s.start }

// recorder collects spans. Recording is off until enable; a disabled
// recorder costs one atomic load per call.
type recorder struct {
	epoch   time.Time
	on      atomic.Bool
	ids     atomic.Uint64
	cur     atomic.Uint64 // operation in progress: parent of synchronous layer calls
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) enable(on bool) { r.on.Store(on) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// begin opens a top-level operation and makes it the parent of the
// layer calls that follow; it returns 0 when recording is off.
func (r *recorder) begin() (id uint64, start int64) {
	if r == nil || !r.on.Load() {
		return 0, 0
	}
	id = r.ids.Add(1)
	r.cur.Store(id)
	return id, r.now()
}

// end closes the operation begin opened.
func (r *recorder) end(id uint64, name string, start int64) {
	if id == 0 {
		return
	}
	r.add(span{id: id, name: name, start: start, end: r.now()})
	r.cur.Store(0)
}

// layer records a call into a lower layer that began at start. A
// synchronous call is attributed to the operation in progress; a
// background one has no parent.
func (r *recorder) layer(name string, start int64, synchronous bool) {
	if !r.on.Load() {
		return
	}
	var parent uint64
	if synchronous {
		parent = r.cur.Load()
	}
	r.add(span{id: r.ids.Add(1), parent: parent, name: name, start: start, end: r.now()})
}

// opStats aggregates the top-level spans of one name: their durations
// and, per child span name, the summed child time.
type opStats struct {
	durs     samples
	children map[string]int64
	childN   map[string]int
}

// childNs returns the summed time of the named child spans (of all
// children when none are named).
func (o *opStats) childNs(names ...string) int64 {
	var t int64
	for name, v := range o.children {
		if len(names) == 0 {
			t += v
			continue
		}
		for _, n := range names {
			if n == name {
				t += v
			}
		}
	}
	return t
}

// aggregate groups the recorded spans: top-level operations by name
// with their children's time, and parentless layer spans (background
// work) by name.
func (r *recorder) aggregate() (ops map[string]*opStats, background map[string]samples) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ops = map[string]*opStats{}
	background = map[string]samples{}
	byID := make(map[uint64]*opStats)
	for _, s := range r.spans {
		if s.parent != 0 {
			continue
		}
		if !isOp(s.name) {
			background[s.name] = append(background[s.name], s.dur())
			continue
		}
		o := ops[s.name]
		if o == nil {
			o = &opStats{children: map[string]int64{}, childN: map[string]int{}}
			ops[s.name] = o
		}
		o.durs = append(o.durs, s.dur())
		byID[s.id] = o
	}
	for _, s := range r.spans {
		if s.parent == 0 {
			continue
		}
		if o := byID[s.parent]; o != nil {
			o.children[s.name] += s.dur()
			o.childN[s.name]++
		}
	}
	return ops, background
}

// layerSamples returns the durations of every span with the given name.
func (r *recorder) layerSamples(name string) samples {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out samples
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// isOp reports whether a span name is one of the benchmark's own
// top-level operations (as opposed to a layer call).
func isOp(name string) bool { return len(name) > 3 && name[:3] == "op." }

// write dumps the span log as tab-separated id, parent, name, start_ns,
// end_ns lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	r.mu.Lock()
	fmt.Fprintf(w, "# id\tparent\tname\tstart_ns\tend_ns (dropped %d)\n", r.dropped)
	for _, s := range r.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.name, s.start, s.end)
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedEngine times the broker's membership, filter-move and publish
// calls into the sequential engine; every other method passes through.
// It implements engine.FilterUpdater, so the broker keeps moving gateway
// filters in place exactly as over the bare tree.
type tracedEngine struct {
	engine.FilterUpdater
	rec *recorder
}

var _ engine.FilterUpdater = (*tracedEngine)(nil)

func (e *tracedEngine) Join(id core.ProcID, f geom.Rect) error {
	t := e.rec.now()
	err := e.FilterUpdater.Join(id, f)
	e.rec.layer("core.Join", t, true)
	return err
}

func (e *tracedEngine) Leave(id core.ProcID) error {
	t := e.rec.now()
	err := e.FilterUpdater.Leave(id)
	e.rec.layer("core.Leave", t, true)
	return err
}

func (e *tracedEngine) UpdateFilter(id core.ProcID, f geom.Rect) error {
	t := e.rec.now()
	err := e.FilterUpdater.UpdateFilter(id, f)
	e.rec.layer("core.UpdateFilter", t, true)
	return err
}

func (e *tracedEngine) PublishBatch(batch []core.Publication) ([]core.Delivery, error) {
	t := e.rec.now()
	ds, err := e.FilterUpdater.PublishBatch(batch)
	e.rec.layer("core.PublishBatch", t, true)
	return ds, err
}

// tracedStore times the broker's journal calls. Append and Replay run
// inside the operation that caused them; Snapshot and Compact run from
// the broker's background checkpoint and are recorded without a parent.
type tracedStore struct {
	state.Store
	rec *recorder
}

var _ state.Stater = (*tracedStore)(nil)

func (s *tracedStore) Append(rec []byte) error {
	t := s.rec.now()
	err := s.Store.Append(rec)
	s.rec.layer("state.Append", t, true)
	return err
}

func (s *tracedStore) Replay(fn func(state.Entry) error) error {
	t := s.rec.now()
	err := s.Store.Replay(fn)
	s.rec.layer("state.Replay", t, true)
	return err
}

func (s *tracedStore) Snapshot(blob []byte) error {
	t := s.rec.now()
	err := s.Store.Snapshot(blob)
	s.rec.layer("state.Snapshot", t, false)
	return err
}

func (s *tracedStore) Compact() error {
	t := s.rec.now()
	err := s.Store.Compact()
	s.rec.layer("state.Compact", t, false)
	return err
}

func (s *tracedStore) Stats() state.Stats {
	if st, ok := s.Store.(state.Stater); ok {
		return st.Stats()
	}
	return state.Stats{}
}
