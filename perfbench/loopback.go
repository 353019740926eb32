package main

// loopback: two in-process drtreed daemons on loopback TCP running the
// live message-passing engine. A client session on daemon 1 holds 1000
// subscriptions (ten copies of a 10x10 tiling of the world, so every
// event matches exactly ten); a publisher session on daemon 0 sends on
// an open-loop schedule, timed from each event's scheduled send: a
// fixed phase at loopRate events/s (the exactly-once check and the
// traced breakdown) and a geometric rate ladder for the capacity.
// Closed-loop windows give the gated figures: the round trips with one
// event in flight, and the throughput with loopInflight in flight.
// This is the only workload through wire, transport, drtreed, the
// overlay hop and the notify path; its match work is trivial.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"drtree/internal/core"
	"drtree/internal/drtreed"
	"drtree/internal/filter"
	"drtree/internal/pubsub"
	"drtree/internal/transport"
)

const (
	loopTilings  = 10
	loopGrid     = 10
	loopCell     = 100.0 // world.Size / loopGrid
	loopRate     = 2000  // fixed-phase events/s (20k notifies/s)
	loopSubBase  = 100_000
	loopProducer = 2
	loopProbe    = 99 // traced run: in-process probe subscriber on daemon 1
	loopWriteID  = 200_000
	loopWrites   = 1000 // subscribe+unsubscribe pairs per pass, one write window

	// loopPasses is how many deployments a run builds and measures. A
	// deployment is cheap to build, and round-trip latency and
	// throughput differ from one deployment to the next by more than
	// between windows on one, so loopback spreads its measurement over
	// more of them than the in-process workloads do.
	loopPasses = 16

	// throughput_per_s is the delivered rate of a closed loop that keeps
	// loopInflight events in the system, sending loopSatEvents in one
	// window per pass.
	loopInflight  = 32
	loopSatEvents = 2000

	// publish_p50_us and notify_p50_us come from a closed loop with one
	// event in flight: each event is sent once every notify of the one
	// before has arrived, and timed from its send. Each pass runs one
	// such window of loopPingPerSec events per second of the run.
	// Timed from the schedule at a fixed rate, the same medians moved
	// by up to half between runs on a 2-vCPU machine, because a slower
	// stretch of the machine adds queueing on top of its own slowdown.
	loopPingPerSec = 100

	// capacity_eps is the highest searched rate whose notify p99 (from
	// the scheduled send) stays within loopLimit with no lost notify.
	// At a quarter of capacity the p99 already reads 6-12 ms on a
	// 2-vCPU machine, so a 10 ms limit tracks scheduling noise; past
	// capacity the backlog grows and the p99 passes 50 ms within a step.
	loopLimit  = 50 * time.Millisecond
	loopStep   = 500 * time.Millisecond // one search step
	loopCoarse = 1.5                    // geometric step up from the fixed rate
	loopFine   = 1.04                   // bisection stops here: finer than the metric's 25% bound
	loopTries  = 2                      // attempts before a ladder step counts as failed
	loopMaxEPS = 64_000
)

// loopTracker follows one phase's events: their schedule, and every
// Notify that arrives for them.
type loopTracker struct {
	idx  map[[2]float64]int // event key -> index; read-only once published
	cell []int              // expected grid cell per event
	due  []int64            // scheduled send, ns since the rig epoch
	send []int64            // publisher only
	ack  []int64            // publisher only
	// probe is the first receipt at daemon 1's in-process probe subscriber
	// (traced run), ns since the rig epoch.
	probe []atomic.Int64

	mu       sync.Mutex
	want     int           // received count the sender waits for; 0 = none
	ready    chan struct{} // signalled once received reaches want
	counts   []uint8       // per event x tiling
	arrivals []loopArrival
	wrong    int // notifies naming the wrong cell or an unknown subscriber
	received int
}

type loopArrival struct {
	ev int
	at int64
}

func newLoopTracker(evs []filter.Event) *loopTracker {
	tr := &loopTracker{
		idx:    make(map[[2]float64]int, len(evs)),
		cell:   make([]int, len(evs)),
		due:    make([]int64, len(evs)),
		send:   make([]int64, len(evs)),
		ack:    make([]int64, len(evs)),
		probe:  make([]atomic.Int64, len(evs)),
		ready:  make(chan struct{}, 1),
		counts: make([]uint8, len(evs)*loopTilings),
	}
	for i, ev := range evs {
		tr.idx[[2]float64{ev["x"], ev["y"]}] = i
		tr.cell[i] = int(ev["y"]/loopCell)*loopGrid + int(ev["x"]/loopCell)
	}
	return tr
}

// loopRig is one setup pass: two daemons and the two client sessions.
type loopRig struct {
	epoch time.Time
	lns   []net.Listener
	ds    []*drtreed.Daemon
	sub   *drtreed.Client
	pub   *drtreed.Client
	cur   atomic.Pointer[loopTracker]
	quiet atomic.Int64 // time of the last Notify, ns since epoch
	done  chan struct{}
}

func (g *loopRig) now() int64 { return int64(time.Since(g.epoch)) }

func (g *loopRig) close() {
	if g.sub != nil {
		g.sub.Close()
	}
	if g.pub != nil {
		g.pub.Close()
	}
	for _, d := range g.ds {
		d.Close()
	}
	for _, ln := range g.lns {
		ln.Close()
	}
	if g.done != nil {
		<-g.done
	}
}

func loopFilter(cx, cy int) string {
	x, y := float64(cx)*loopCell, float64(cy)*loopCell
	return fmt.Sprintf("x in [%g, %g] && y in [%g, %g]", x, x+loopCell, y, y+loopCell)
}

// startRig builds the deployment and waits until the cross-daemon path
// delivers.
func startRig() (*loopRig, error) {
	g := &loopRig{epoch: time.Now()}
	peers := make([]string, 2)
	for i := range peers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			g.close()
			return nil, err
		}
		g.lns = append(g.lns, ln)
		peers[i] = ln.Addr().String()
	}
	for i := range peers {
		d, err := drtreed.New(
			drtreed.WithNode(i),
			drtreed.WithPeers(peers...),
			drtreed.WithListener(g.lns[i]),
			drtreed.WithSpace(space.Attrs()...),
		)
		if err != nil {
			g.close()
			return nil, err
		}
		g.ds = append(g.ds, d)
	}
	var err error
	if g.sub, err = drtreed.Dial(g.ds[1].Addr(), 5*time.Second); err != nil {
		g.close()
		return nil, err
	}
	g.done = make(chan struct{})
	go g.receive()
	if g.pub, err = drtreed.Dial(g.ds[0].Addr(), 5*time.Second); err != nil {
		g.close()
		return nil, err
	}
	if err := g.pub.Subscribe(loopProducer, "x in [2000, 3000] && y in [2000, 3000]"); err != nil {
		g.close()
		return nil, err
	}
	for t := 0; t < loopTilings; t++ {
		for c := 0; c < loopGrid*loopGrid; c++ {
			if err := g.sub.Subscribe(int64(loopSubBase+t*100+c), loopFilter(c%loopGrid, c/loopGrid)); err != nil {
				g.close()
				return nil, fmt.Errorf("subscribe: %w", err)
			}
		}
	}
	// The overlay converges through its periodic checks: publish
	// distinct warm-up events until one arrives, then let the rest drain.
	for i := 0; ; i++ {
		if i == 200 {
			g.close()
			return nil, fmt.Errorf("cross-daemon path never converged")
		}
		warm := []filter.Event{{"x": 0.5 + float64(i)*1e-3, "y": 0.5}}
		tr := newLoopTracker(warm)
		g.cur.Store(tr)
		if err := g.pub.Publish(loopProducer, warm[0]); err != nil {
			g.close()
			return nil, err
		}
		deadline := time.Now().Add(100 * time.Millisecond)
		for time.Now().Before(deadline) && tr.got() == 0 {
			time.Sleep(time.Millisecond)
		}
		if tr.got() > 0 {
			break
		}
	}
	g.drain()
	g.cur.Store(nil)
	return g, nil
}

// receive is the subscriber session's reader: it matches every Notify
// to the current tracker's event. It ends when the session closes.
func (g *loopRig) receive() {
	defer close(g.done)
	for e := range g.sub.Events() {
		at := g.now()
		g.quiet.Store(at)
		tr := g.cur.Load()
		if tr == nil {
			continue
		}
		i, ok := tr.idx[[2]float64{e.Event["x"], e.Event["y"]}]
		if !ok {
			continue // a late notify from an earlier phase
		}
		off := e.Subscriber - loopSubBase
		tr.mu.Lock()
		tr.received++
		if tr.want > 0 && tr.received >= tr.want {
			tr.want = 0
			tr.ready <- struct{}{}
		}
		if off < 0 || off >= loopTilings*100 || int(off%100) != tr.cell[i] {
			tr.wrong++
		} else {
			tr.counts[i*loopTilings+int(off/100)]++
			tr.arrivals = append(tr.arrivals, loopArrival{ev: i, at: at})
		}
		tr.mu.Unlock()
	}
}

// await blocks until at least n notifies have arrived, or for at most
// timeout.
func (tr *loopTracker) await(n int, timeout time.Duration) {
	tr.mu.Lock()
	if tr.received >= n {
		tr.mu.Unlock()
		return
	}
	select { // a signal left over from a wait that timed out
	case <-tr.ready:
	default:
	}
	tr.want = n
	tr.mu.Unlock()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-tr.ready:
	case <-t.C:
		tr.mu.Lock()
		tr.want = 0
		tr.mu.Unlock()
	}
}

func (tr *loopTracker) got() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.received
}

// drain waits until no Notify has arrived for 100ms.
func (g *loopRig) drain() {
	g.quiet.Store(g.now())
	for g.now()-g.quiet.Load() < int64(100*time.Millisecond) {
		time.Sleep(10 * time.Millisecond)
	}
}

// loopEvents draws n events strictly inside grid cells (never on a cell
// border, so each matches exactly one cell per tiling), with distinct
// coordinates so every Notify names its event.
func loopEvents(in *rand.Rand, n int, seen map[[2]float64]bool) []filter.Event {
	evs := make([]filter.Event, 0, n)
	for len(evs) < n {
		c := in.IntN(loopGrid * loopGrid)
		x := float64(c%loopGrid)*loopCell + 1 + in.Float64()*(loopCell-2)
		y := float64(c/loopGrid)*loopCell + 1 + in.Float64()*(loopCell-2)
		k := [2]float64{x, y}
		if seen[k] {
			continue
		}
		seen[k] = true
		evs = append(evs, filter.Event{"x": x, "y": y})
	}
	return evs
}

// loopPhase is the outcome of sending one schedule.
type loopPhase struct {
	events  int
	errors  int
	lost    int // owed notifies that never arrived
	dup     int // notifies beyond one per event and tiling
	wrong   int
	badEv   int // events with any lost, duplicate or misrouted notify
	notify  samples
	ack     samples
	maxLate int64
	backlog int   // sends that started after the schedule's end
	elapsed int64 // first due time to last notify, ns
}

// deliveredRate returns the phase's events per second, first due time
// to last notify.
func (p loopPhase) deliveredRate() float64 {
	if p.elapsed <= 0 {
		return 0
	}
	return float64(p.events) / time.Duration(p.elapsed).Seconds()
}

// tally counts the phase's events as attempted operations, and each
// event with a lost, duplicate or misrouted notify, and each publish
// error, as a failed one.
func (p loopPhase) tally(r *result, what string) {
	r.attempted += p.events
	if bad := p.badEv + p.errors + p.wrong; bad > 0 {
		r.failed += bad - 1
		r.fail("%s: %d publish errors, %d lost, %d duplicate, %d misrouted notifies", what, p.errors, p.lost, p.dup, p.wrong)
	}
}

func (p loopPhase) ok() bool {
	return p.errors == 0 && p.lost == 0 && p.dup == 0 && p.wrong == 0 &&
		p.notify.sorted().quantile(0.99) <= float64(loopLimit)
}

// runSchedule sends evs open loop at rate events/s from this goroutine,
// each at its due time (or at once when late), waits for the notifies
// and tallies the phase. With inflight > 0 it also holds each send until
// fewer than inflight events still owe notifies; at an infinite rate
// that is a closed loop that keeps inflight events in the system, and
// each event is timed from its send.
func (g *loopRig) runSchedule(evs []filter.Event, rate float64, inflight int) (loopPhase, *loopTracker) {
	tr := newLoopTracker(evs)
	interval := float64(time.Second) / rate
	t0 := g.now() + int64(time.Millisecond)
	for i := range evs {
		tr.due[i] = t0 + int64(float64(i)*interval)
	}
	g.cur.Store(tr)
	ph := loopPhase{events: len(evs)}
	end := t0 + int64(float64(len(evs))*interval)
	for i, ev := range evs {
		if d := tr.due[i] - g.now(); d > 0 {
			sleepFor(time.Duration(d))
		}
		if inflight > 0 {
			// A lost notify would hold the window forever; the tally
			// below counts it.
			tr.await((i-inflight+1)*loopTilings, time.Second)
		}
		s := g.now()
		err := g.pub.Publish(loopProducer, ev)
		a := g.now()
		tr.send[i], tr.ack[i] = s, a
		if math.IsInf(rate, 1) {
			tr.due[i] = s
		}
		ph.ack = append(ph.ack, a-s)
		ph.maxLate = max(ph.maxLate, s-tr.due[i])
		if s > end {
			ph.backlog++
		}
		if err != nil {
			ph.errors++
		}
	}
	owed := len(evs) * loopTilings
	deadline := time.Now().Add(2 * time.Second)
	for tr.got() < owed && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	// Anything still missing after a quiet spell is lost.
	g.drain()
	g.cur.Store(nil)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	ph.wrong = tr.wrong
	for i := range evs {
		bad := false
		for t := 0; t < loopTilings; t++ {
			switch c := int(tr.counts[i*loopTilings+t]); {
			case c == 0:
				ph.lost++
				bad = true
			case c > 1:
				ph.dup += c - 1
				bad = true
			}
		}
		if bad {
			ph.badEv++
		}
	}
	for _, a := range tr.arrivals {
		ph.notify = append(ph.notify, a.at-tr.due[a.ev])
		ph.elapsed = max(ph.elapsed, a.at-t0)
	}
	return ph, tr
}

func runLoopback(cfg config) (*result, error) {
	r := newResult("loopback")
	// The fixed phase sends for a quarter of the run's seconds in all
	// (half in a traced run, whose breakdown comes from it).
	slice := loopRate * cfg.seconds / 4 / loopPasses
	if cfg.trace {
		slice *= 2
	}

	// Each setup pass (a fresh deployment) runs an equal share of the
	// fixed phase and a write window; an untraced run adds a round-trip
	// window and a throughput window. A traced run sends its share of the
	// fixed phase as two schedules and adds the probe for the second one;
	// the first schedules are its untraced baseline on the same
	// deployments. The last pass of a traced run also searches for the
	// capacity (capacity_eps is not gated; one search takes ~8 s, which
	// the untraced runs spend on more deployments instead).
	var (
		setups, heaps          []float64
		rates                  []float64
		writes, acks, notifies []samples
		openAcks, openNotifies []samples
		untraced               loopPhase
		traced                 loopPhase
		trackers               []*loopTracker
		fixed                  []filter.Event
		tpTraced               transport.Stats
	)
	for pass := 0; pass < loopPasses; pass++ {
		last := pass == loopPasses-1
		start := time.Now()
		g, err := startRig()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		heaps = append(heaps, heapMB())
		// Each pass draws from streams of its own, so its events depend on
		// the seed alone, not on what an earlier pass drew. Notifies name
		// their event by its coordinates, which are distinct within the
		// deployment.
		seen := map[[2]float64]bool{}
		fixedIn, satIn, ladderIn := rng(cfg.seed, uint64(50+pass)), rng(cfg.seed, uint64(60+pass)), rng(cfg.seed, uint64(70+pass))
		pingIn := rng(cfg.seed, uint64(80+pass))
		var ph loopPhase
		// An untraced run sends the pass's share of the fixed phase as one
		// schedule, a traced run as two.
		halves := 1
		if cfg.trace {
			halves = 2
		}
		for h := 0; h < halves; h++ {
			tracedHalf := h == 1
			if tracedHalf {
				// The probe's receipt splits each notify's path at the
				// receiving daemon.
				if err := g.addProbe(); err != nil {
					g.close()
					return nil, err
				}
			}
			evs := loopEvents(fixedIn, slice/halves, seen)
			fixed = append(fixed, evs...)
			tp0 := g.transportStats()
			w, tr := g.runSchedule(evs, loopRate, 0)
			ph.merge(w)
			if tracedHalf {
				tp := g.transportStats()
				tpTraced.Sent += tp.Sent - tp0.Sent
				tpTraced.Dropped += tp.Dropped - tp0.Dropped
				tpTraced.Bounced += tp.Bounced - tp0.Bounced
				tpTraced.Reconnects += tp.Reconnects - tp0.Reconnects
				traced.merge(w)
				trackers = append(trackers, tr)
				if last {
					enq, dropped, high := daemonDelivery(g.ds[1].Broker(), loopProbe)
					r.layer["eventbus.enqueued"] = metric{Value: float64(enq), Unit: "count"}
					r.layer["eventbus.dropped"] = metric{Value: float64(dropped), Unit: "count"}
					r.layer["eventbus.high_water"] = metric{Value: float64(high), Unit: "count"}
					r.layer["pubsub.gateways"] = metric{Value: float64(g.ds[0].Broker().Gateways() + g.ds[1].Broker().Gateways()), Unit: "count"}
				}
				if err := g.ds[1].Broker().Unsubscribe(loopProbe); err != nil {
					g.close()
					return nil, err
				}
			} else {
				untraced.merge(w)
				openAcks = append(openAcks, w.ack)
				openNotifies = append(openNotifies, w.notify)
			}
		}
		ph.tally(r, "fixed phase")
		if !cfg.trace {
			w, _ := g.runSchedule(loopEvents(pingIn, loopPingPerSec*cfg.seconds, seen), math.Inf(1), 1)
			w.tally(r, "round-trip window")
			acks = append(acks, w.ack)
			notifies = append(notifies, w.notify)
		}
		ws, failed := g.writePhase()
		writes = append(writes, ws)
		r.attempted += len(ws)
		if failed > 0 {
			r.failed += failed - 1
			r.fail("%d subscription changes failed", failed)
		}
		if !cfg.trace {
			sat, _ := g.runSchedule(loopEvents(satIn, loopSatEvents, seen), math.Inf(1), loopInflight)
			rates = append(rates, sat.deliveredRate())
			sat.tally(r, "throughput window")
		} else if last {
			r.extra["capacity_eps"] = metric{Value: g.ladder(r, ladderIn, seen, ph.ok()), Unit: "1/s", n: 1}
		}
		g.close()
	}

	r.e2e["setup_s"] = metric{Value: median(setups), Unit: "s", n: len(setups)}
	r.e2e["heap_mb"] = metric{Value: median(heaps), Unit: "MB", n: len(heaps)}
	timing(r, "write", writes)
	if !cfg.trace {
		timing(r, "publish", acks)
		timing(r, "notify", notifies)
		r.logf("write latency is the Client.Subscribe/Unsubscribe round trip on the running deployment; publish latency the Client.Publish round trip and notify latency the time from the send to the Notify's arrival, both with one event in flight")
		describe(r, "open-loop publish", openAcks)
		describe(r, "open-loop notify", openNotifies)
		r.extra["publish_open_p50_us"] = metric{Value: windowed(openAcks, 0.5) / 1e3, Unit: "us", n: len(untraced.ack)}
		r.extra["notify_open_p50_us"] = metric{Value: windowed(openNotifies, 0.5) / 1e3, Unit: "us", n: len(untraced.notify)}
		r.logf("open-loop figures: the fixed phase at %d events/s, notify latency from the scheduled send", loopRate)
		r.extra["loadgen.max_late_us"] = metric{Value: float64(untraced.maxLate) / 1e3, Unit: "us"}
		r.e2e["throughput_per_s"] = metric{Value: median(rates), Unit: "1/s", n: len(rates)}
		r.logf("throughput_per_s: delivered events/s with %d events in flight, median of %d windows %.0f", loopInflight, len(rates), rates)
		return r, nil
	}

	layerCommon(r, fixed)
	// Split every traced notify at the probe: due -> send (generator),
	// send -> daemon-1 probe receipt (RPC in, live overlay hop over TCP,
	// gateway match, delivery queue), probe -> arrival (notify pump,
	// Notify frame, client read).
	var late, in1, out1, total float64
	var n int
	for _, tr := range trackers {
		for _, a := range tr.arrivals {
			p := tr.probe[a.ev].Load()
			if p == 0 {
				continue
			}
			late += float64(tr.send[a.ev] - tr.due[a.ev])
			in1 += float64(p - tr.send[a.ev])
			out1 += float64(a.at - p)
			total += float64(a.at - tr.due[a.ev])
			n++
		}
	}
	share(r, "loadgen", late, total)
	share(r, "proto", in1, total)
	share(r, "drtreed", out1, total)
	if n > 0 {
		fn := float64(n)
		r.logf("notify breakdown over %d traced notifies (means, us): generator lateness %.1f + send->daemon-1 receipt %.1f + daemon-1 receipt->client %.1f = %.1f; traced notify mean %.1f",
			n, late/fn/1e3, in1/fn/1e3, out1/fn/1e3, (late+in1+out1)/fn/1e3, total/fn/1e3)
	}
	r.layer["drtreed.publish_ack_us_p50"] = metric{Value: traced.ack.sorted().quantile(0.5) / 1e3, Unit: "us", n: len(traced.ack)}
	r.layer["pubsub.received_per_event"] = metric{Value: float64(len(traced.notify)) / float64(traced.events), Unit: "count"}
	r.layer["transport.msgs_per_event"] = metric{Value: float64(tpTraced.Sent) / float64(traced.events), Unit: "count"}
	r.layer["transport.dropped"] = metric{Value: float64(tpTraced.Dropped), Unit: "count"}
	r.layer["transport.bounced"] = metric{Value: float64(tpTraced.Bounced), Unit: "count"}
	r.layer["transport.reconnects"] = metric{Value: float64(tpTraced.Reconnects), Unit: "count"}
	r.layer["loadgen.backlog"] = metric{Value: float64(traced.backlog), Unit: "count"}
	r.layer["loadgen.max_late_us"] = metric{Value: float64(traced.maxLate) / 1e3, Unit: "us"}
	overhead(r, untraced.ack, traced.ack, "publish")
	overhead(r, untraced.notify, traced.notify, "notify")
	return r, nil
}

// writePhase times loopWrites subscribe+unsubscribe round trips of a
// short-lived subscription on the running deployment, between phases
// (no events in flight). It returns the latencies and the failed calls.
func (g *loopRig) writePhase() (samples, int) {
	var ws samples
	failed := 0
	for i := 0; i < loopWrites; i++ {
		id := int64(loopWriteID + i)
		t0 := time.Now()
		err := g.sub.Subscribe(id, loopFilter(i%loopGrid, (i/loopGrid)%loopGrid))
		ws.add(time.Since(t0))
		if err != nil {
			failed++
			continue
		}
		t0 = time.Now()
		err = g.sub.Unsubscribe(id)
		ws.add(time.Since(t0))
		if err != nil {
			failed++
		}
	}
	return ws, failed
}

// addProbe subscribes an in-process handler on daemon 1 that stamps the
// first receipt of each tracked event there.
func (g *loopRig) addProbe() error {
	return g.ds[1].Broker().SubscribeFunc(loopProbe, filter.Range("x", 0, world.Size), func(env pubsub.Envelope) error {
		if tr := g.cur.Load(); tr != nil {
			if i, ok := tr.idx[[2]float64{env.Event["x"], env.Event["y"]}]; ok {
				tr.probe[i].CompareAndSwap(0, g.now())
			}
		}
		return nil
	})
}

func (p *loopPhase) merge(q loopPhase) {
	p.events += q.events
	p.errors += q.errors
	p.lost += q.lost
	p.dup += q.dup
	p.wrong += q.wrong
	p.badEv += q.badEv
	p.notify = append(p.notify, q.notify...)
	p.ack = append(p.ack, q.ack...)
	p.maxLate = max(p.maxLate, q.maxLate)
	p.backlog += q.backlog
}

// ladder searches for the highest open-loop rate that meets the
// latency limit with nothing lost: geometric steps of loopCoarse up from
// the fixed rate until one fails, then bisection (in log rate) between
// the last pass and the first failure down to loopFine, finer than the
// benchmark's bound on the metric. A failed step is retried, so one
// scheduling hiccup does not end the search. Every step is reported
// with the generator's lateness and backlog.
func (g *loopRig) ladder(r *result, in *rand.Rand, seen map[[2]float64]bool, fixedOK bool) float64 {
	steps := 0
	pass := func(rate float64) bool {
		for try := 0; try < loopTries; try++ {
			evs := loopEvents(in, int(rate*loopStep.Seconds()), seen)
			ph, _ := g.runSchedule(evs, rate, 0)
			steps++
			s := ph.notify.sorted()
			r.logf("ladder %6.0f ev/s: %-4s notify p99 %8.1fus, lost %d, max late %8.1fus, backlog %d",
				rate, map[bool]string{true: "pass", false: "fail"}[ph.ok()], s.quantile(0.99)/1e3, ph.lost, float64(ph.maxLate)/1e3, ph.backlog)
			if ph.ok() {
				return true
			}
		}
		return false
	}
	lo, hi := float64(loopRate), 0.0
	if !fixedOK {
		hi = lo
		for lo /= loopCoarse; lo > 100 && !pass(lo); lo /= loopCoarse {
			hi = lo
		}
	}
	for hi == 0 {
		rate := lo * loopCoarse
		if rate > loopMaxEPS {
			break
		}
		if pass(rate) {
			lo = rate
		} else {
			hi = rate
		}
	}
	for hi > 0 && hi/lo > loopFine {
		mid := math.Sqrt(lo * hi)
		if pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	r.logf("capacity search: %.0f ev/s (limit: notify p99 <= %v, nothing lost; %d steps of %v)", lo, loopLimit, steps, loopStep)
	return lo
}

// transportStats sums the overlay transport counters of both daemons.
func (g *loopRig) transportStats() transport.Stats {
	var s transport.Stats
	for _, d := range g.ds {
		t := d.TransportStats()
		s.Sent += t.Sent
		s.Dropped += t.Dropped
		s.Bounced += t.Bounced
		s.Reconnects += t.Reconnects
	}
	return s
}

// daemonDelivery totals a daemon broker's delivery queues, leaving out
// the probe.
func daemonDelivery(b *pubsub.Broker, skip core.ProcID) (enq, dropped uint64, high int) {
	for _, st := range b.DeliveryStats() {
		if st.ID == skip {
			continue
		}
		enq += st.Enqueued
		dropped += st.Dropped
		high = max(high, st.HighWater)
	}
	return enq, dropped, high
}
