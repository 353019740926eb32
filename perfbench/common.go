package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"drtree/internal/core"
	"drtree/internal/filter"
	"drtree/internal/geom"
	"drtree/internal/pubsub"
	"drtree/internal/simnet"
	"drtree/internal/wire"
	"drtree/internal/workload"
)

// setupPasses is how many times each workload builds its system; the
// reported setup_s is the median pass.
const setupPasses = 3

// gatewayPolicy is the adaptive pool both in-process workloads use (the
// broker bench rows' policy): split past ~2048 subscriptions per
// gateway, between 4 and 4096 gateways.
func gatewayPolicy() pubsub.Option { return pubsub.WithGatewayPolicy(2048, 4, 4096) }

// outDir holds everything a run writes (WAL directories, span
// logs), relative to the checkout the benchmark runs in.
const outDir = ".bench_build"

var (
	world = workload.DefaultWorld()
	space = filter.MustSpace("x", "y")
)

// rng derives the workload's input generator from the seed and a
// per-purpose stream number, so inputs repeat exactly for one seed.
func rng(seed uint64, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

func rectFilter(r geom.Rect) filter.Filter {
	return filter.Range("x", r.Lo(0), r.Hi(0)).And(filter.Range("y", r.Lo(1), r.Hi(1)))
}

// newTree is the sequential engine both in-process workloads run on,
// with the broker bench rows' parameters.
func newTree() (*core.Tree, error) {
	return core.New(core.Params{MinFanout: 2, MaxFanout: 4, PublishWorkers: 1})
}

// heapMB returns the live heap after a full collection, in MiB.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// seqEvents turns points into events tagged with their index in the
// "seq" attribute. The attribute is outside the space: it never affects
// routing or matching, and lets a delivery handler find its event.
func seqEvents(pts []geom.Point) []filter.Event {
	evs := make([]filter.Event, len(pts))
	for i, p := range pts {
		evs[i] = filter.Event{"x": p[0], "y": p[1], "seq": float64(i)}
	}
	return evs
}

// pointNs times filter.Space.Point, the event compile every publish
// runs, on the workload's own events: mean nanoseconds per event.
func pointNs(evs []filter.Event) float64 {
	n := 0
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond {
		for _, ev := range evs {
			if _, err := space.Point(ev); err != nil {
				panic(err) // the workload generated an event outside its space
			}
		}
		n += len(evs)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// codecNs times the wire codec on the frames the workload's events
// would travel in: one Publish frame per event and one Notify frame per
// event, alternating. It returns mean nanoseconds per frame to encode
// and to decode.
func codecNs(evs []filter.Event) (enc, dec float64) {
	attrs := space.Attrs()
	msgs := make([]simnet.Message, 0, 2*len(evs))
	for i, ev := range evs {
		values := make([]float64, len(attrs))
		for k, a := range attrs {
			values[k] = ev[a]
		}
		msgs = append(msgs,
			simnet.Message{Payload: wire.Publish{Ref: uint64(i + 1), Producer: 2, Attrs: attrs, Values: values}},
			simnet.Message{Payload: wire.Notify{Subscriber: int64(i), Seq: uint64(i + 1), Attrs: attrs, Values: values}})
	}
	frames := make([][]byte, len(msgs))
	var encN, decN int
	var encT, decT time.Duration
	for encT < 30*time.Millisecond {
		start := time.Now()
		for i, m := range msgs {
			f, err := wire.EncodeFrame(m)
			if err != nil {
				panic(err) // every payload above is a registered wire type
			}
			frames[i] = f
		}
		encT += time.Since(start)
		encN += len(msgs)
	}
	for decT < 30*time.Millisecond {
		start := time.Now()
		for _, f := range frames {
			if _, _, err := wire.DecodeFrame(f); err != nil {
				panic(err)
			}
		}
		decT += time.Since(start)
		decN += len(frames)
	}
	return float64(encT.Nanoseconds()) / float64(encN), float64(decT.Nanoseconds()) / float64(decN)
}

// layerCommon adds the per-layer metrics every workload reports the same
// way: the event compile and the wire codec, timed on the workload's
// events.
func layerCommon(r *result, evs []filter.Event) {
	r.layer["filter.point_ns_per_event"] = metric{Value: pointNs(evs), Unit: "ns"}
	enc, dec := codecNs(evs)
	r.layer["wire.encode_ns"] = metric{Value: enc, Unit: "ns"}
	r.layer["wire.decode_ns"] = metric{Value: dec, Unit: "ns"}
}

// notifyClock times in-process deliveries. The publisher stamps each
// event's publish start and return (indexed by the event's seq); the
// queue-backed handlers compute notify latency (receipt - start) and
// queue wait (receipt - return) from those stamps.
type notifyClock struct {
	epoch time.Time
	start []atomic.Int64
	ret   []atomic.Int64
	got   atomic.Int64
	stale atomic.Int64 // receipts stamped before their publish began: a bookkeeping bug

	mu      sync.Mutex
	on      bool
	latency samples
	wait    samples
}

func newNotifyClock(events int) *notifyClock {
	return &notifyClock{epoch: time.Now(), start: make([]atomic.Int64, events), ret: make([]atomic.Int64, events)}
}

func (c *notifyClock) now() int64 { return int64(time.Since(c.epoch)) }

// record turns sample collection on or off; receipts are counted either
// way.
func (c *notifyClock) record(on bool) {
	c.mu.Lock()
	c.on = on
	c.mu.Unlock()
}

// take returns and resets the collected samples.
func (c *notifyClock) take() (latency, wait samples) {
	c.mu.Lock()
	defer c.mu.Unlock()
	latency, wait = c.latency, c.wait
	c.latency, c.wait = nil, nil
	return latency, wait
}

// handler returns a delivery handler that stamps each receipt and also
// counts it in n, the subscriber's own counter.
func (c *notifyClock) handler(n *atomic.Int64) pubsub.Handler {
	return func(env pubsub.Envelope) error {
		n.Add(1)
		c.receive(env)
		return nil
	}
}

func (c *notifyClock) receive(env pubsub.Envelope) {
	now := c.now()
	seq := int(env.Event["seq"])
	start, ret := c.start[seq].Load(), c.ret[seq].Load()
	c.got.Add(1)
	if now < start {
		c.stale.Add(1)
		return
	}
	var wait int64
	if ret >= start { // the publish has returned; otherwise the event was handed over before it did
		wait = max(0, now-ret)
	}
	c.mu.Lock()
	if c.on {
		c.latency = append(c.latency, now-start)
		c.wait = append(c.wait, wait)
	}
	c.mu.Unlock()
}

// phase accumulates one measured stretch of an in-process workload:
// latency samples, work counts and the counters its notifications
// carried.
type phase struct {
	pub, write, notify, wait samples
	ops, events              int
	busy                     time.Duration
	scan, gwv, msg           int
	recv, fp                 int
}

// perWindow picks one latency sample set out of each window.
func perWindow(ws []phase, get func(*phase) samples) []samples {
	out := make([]samples, len(ws))
	for i := range ws {
		out[i] = get(&ws[i])
	}
	return out
}

// rateMedian returns the median over windows of count per busy second.
func rateMedian(ws []phase, count func(*phase) int) float64 {
	return median(windowRates(ws, count))
}

// windowsPerPass is how many measurement windows of length win each
// setup pass of an in-process workload runs: an equal share of the
// run's seconds, at least two (a traced run traces the second half).
// Figures are medians over many short windows, so a burst of
// interference from outside the program that lands in a few of them
// does not move the result.
func windowsPerPass(cfg config, win time.Duration) int {
	return max(2, int(time.Duration(cfg.seconds)*time.Second/setupPasses/win))
}

// windowRates returns each window's count per busy second.
func windowRates(ws []phase, count func(*phase) int) []float64 {
	var rates []float64
	for i := range ws {
		if ws[i].busy > 0 {
			rates = append(rates, float64(count(&ws[i]))/ws[i].busy.Seconds())
		}
	}
	return rates
}

// note adds one notification's counters.
func (p *phase) note(n pubsub.Notification) {
	p.scan += n.ScanVisited
	p.gwv += n.GatewayVisited
	p.msg += n.Messages
	p.recv += len(n.Received)
	p.fp += len(n.FalsePositives)
}

func (p *phase) merge(q phase) {
	p.pub = append(p.pub, q.pub...)
	p.write = append(p.write, q.write...)
	p.notify = append(p.notify, q.notify...)
	p.wait = append(p.wait, q.wait...)
	p.ops += q.ops
	p.events += q.events
	p.busy += q.busy
	p.scan += q.scan
	p.gwv += q.gwv
	p.msg += q.msg
	p.recv += q.recv
	p.fp += q.fp
}

// layerCounts adds the per-event classification counters of a phase.
func layerCounts(r *result, p phase) {
	ev := float64(max(1, p.events))
	r.layer["pubsub.scan_visited_per_event"] = metric{Value: float64(p.scan) / ev, Unit: "count"}
	r.layer["pubsub.gateway_visited_per_event"] = metric{Value: float64(p.gwv) / ev, Unit: "count"}
	r.layer["pubsub.received_per_event"] = metric{Value: float64(p.recv) / ev, Unit: "count"}
	r.layer["pubsub.fp_ratio"] = metric{Value: float64(p.fp) / max(1, float64(p.recv)), Unit: "ratio"}
	r.layer["core.msgs_per_event"] = metric{Value: float64(p.msg) / ev, Unit: "count"}
}

// brokerLayers adds the pool and delivery-queue counters of a broker.
func brokerLayers(r *result, b *pubsub.Broker, enq, dropped uint64, high int) {
	r.layer["pubsub.gateways"] = metric{Value: float64(b.Gateways()), Unit: "count"}
	r.layer["pubsub.full_reunions"] = metric{Value: float64(fullReunions(b)), Unit: "count"}
	r.layer["eventbus.enqueued"] = metric{Value: float64(enq), Unit: "count"}
	r.layer["eventbus.dropped"] = metric{Value: float64(dropped), Unit: "count"}
	r.layer["eventbus.high_water"] = metric{Value: float64(high), Unit: "count"}
}

// fullReunions totals the shrink-path union recomputations of the pool.
func fullReunions(b *pubsub.Broker) uint64 {
	var n uint64
	for _, st := range b.GatewayStats() {
		n += st.FullReunions
	}
	return n
}

// settle waits for the deliveries the ledger says a broker owes
// (handled ones counted from got0 on the clock) and checks that each
// was handled or dropped exactly once. It returns the broker's
// delivery-queue totals.
func settle(r *result, b *pubsub.Broker, c *notifyClock, got0 int64, l *owedLedger) (enq, dropped uint64, high int) {
	owed := l.total
	enq, dropped, high = awaitDeliveries(b, c, got0+owed-int64(l.retired), 10*time.Second)
	dropped += l.retired
	got := c.got.Load() - got0
	r.attempted += int(owed)
	if missing := owed - got - int64(dropped); missing != 0 {
		r.failed += int(max(missing, -missing)) - 1
		r.fail("deliveries: %d owed, %d handled, %d dropped", owed, got, dropped)
	}
	return enq, dropped, high
}

// awaitDeliveries waits until the queue-backed subscribers have handled
// or dropped every owed delivery, or the timeout passes, and returns
// the broker-wide enqueued, dropped and high-water totals.
func awaitDeliveries(b *pubsub.Broker, c *notifyClock, owed int64, timeout time.Duration) (enq, dropped uint64, high int) {
	deadline := time.Now().Add(timeout)
	for {
		enq, dropped, high = 0, 0, 0
		for _, st := range b.DeliveryStats() {
			enq += st.Enqueued
			dropped += st.Dropped
			high = max(high, st.HighWater)
		}
		if c.got.Load()+int64(dropped) >= owed || time.Now().After(deadline) {
			return enq, dropped, high
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// oracle returns the IDs whose filter matches ev, ascending: the
// brute-force answer a Notification's Interested set must equal. ids
// and fs are index-aligned.
func oracle(ids []core.ProcID, fs []filter.Filter, ev filter.Event) []core.ProcID {
	var out []core.ProcID
	for i, f := range fs {
		if f.Match(ev) {
			out = append(out, ids[i])
		}
	}
	slices.Sort(out)
	return out
}

// owedLedger follows, per queue-backed subscriber, the deliveries owed
// to it and the ones its handler received, so that one can be
// unsubscribed without losing count: an unsubscribe sheds its queue, and
// its counters leave DeliveryStats. Used by the client goroutine only;
// the handlers touch nothing but their own counter.
type owedLedger struct {
	handled map[core.ProcID]*atomic.Int64
	owed    map[core.ProcID]int64
	total   int64  // deliveries owed, all subscribers
	retired uint64 // drops of subscribers since unsubscribed
}

func newOwedLedger() *owedLedger {
	return &owedLedger{handled: map[core.ProcID]*atomic.Int64{}, owed: map[core.ProcID]int64{}}
}

// handler registers id as queue-backed and returns its counting handler.
func (l *owedLedger) handler(c *notifyClock, id core.ProcID) pubsub.Handler {
	n := new(atomic.Int64)
	l.handled[id] = n
	return c.handler(n)
}

// note records the deliveries a notification owes: received and
// interested queue-backed subscribers.
func (l *owedLedger) note(n pubsub.Notification) {
	for _, id := range n.Received {
		if l.handled[id] != nil && !slices.Contains(n.FalsePositives, id) {
			l.owed[id]++
			l.total++
		}
	}
}

// retire waits until every delivery owed to id has been handled or
// dropped (up to a timeout, after which the final count shows the
// loss), then keeps its drop count; call it just before unsubscribing.
func (l *owedLedger) retire(b *pubsub.Broker, id core.ProcID) {
	n := l.handled[id]
	if n == nil {
		return
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		st, _ := b.DeliveryStatsOf(id)
		if n.Load()+int64(st.Dropped) >= l.owed[id] || time.Now().After(deadline) {
			l.retired += st.Dropped
			break
		}
		time.Sleep(20 * time.Microsecond)
	}
	delete(l.handled, id)
	delete(l.owed, id)
}

// tempDir makes a fresh directory under the output directory.
func tempDir(prefix string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(outDir, prefix)
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

// writeSpans dumps the recorder's span log next to the other run output.
func writeSpans(r *result, rec *recorder) {
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s.tsv", r.workload))
	if err := rec.write(path); err != nil {
		r.logf("span log not written: %v", err)
		return
	}
	r.logf("span log: %s (%d spans)", path, len(rec.spans))
}

// share adds <layer>.share_pct: a layer's self time as a percentage of
// the traced end-to-end time.
func share(r *result, layer string, selfNs, totalNs float64) {
	v := 0.0
	if totalNs > 0 {
		v = 100 * selfNs / totalNs
	}
	r.layer[layer+".share_pct"] = metric{Value: v, Unit: "%"}
}
