package main

// hotspot: 100k fixed-size subscriptions (~200 matches per event) on an
// in-process broker over the sequential engine, one closed-loop
// publisher sending Zipf-hotspot events in batches of 16. Classification
// (routing tree, match index, census) dominates; this is the regime of
// the BrokerZipf/n100000 bench row.

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"drtree/internal/core"
	"drtree/internal/engine"
	"drtree/internal/filter"
	"drtree/internal/geom"
	"drtree/internal/pubsub"
	"drtree/internal/workload"
)

const (
	hotspotSubs   = 100_000
	hotspotQueued = 256   // queue-backed subscribers (SubscribeFunc); the rest record only
	hotspotBatch  = 16    // events per PublishBatch
	hotspotEvents = 32768 // distinct events the publisher cycles through
	// hotspotLayouts independent Zipf draws (each ranks the cells by its
	// own shuffle) are interleaved, so every stretch of the run averages
	// over many hot-cell placements instead of riding on one seed's.
	hotspotLayouts = 16
	hotspotOracle  = 32                     // batches between brute-force oracle checks
	hotspotWindow  = 500 * time.Millisecond // one measurement window
)

func runHotspot(cfg config) (*result, error) {
	r := newResult("hotspot")
	in := rng(cfg.seed, 1)
	rects := workload.Subscriptions(in, world, workload.Uniform, hotspotSubs)
	ids := make([]core.ProcID, len(rects))
	filters := make([]filter.Filter, len(rects))
	for i, rc := range rects {
		ids[i] = core.ProcID(i + 1)
		filters[i] = rectFilter(rc)
	}
	evs := seqEvents(zipfMix(in, hotspotEvents, hotspotLayouts))
	every := hotspotSubs / hotspotQueued
	queued := func(id core.ProcID) bool { return int(id-1)%every == 0 }
	clock := newNotifyClock(len(evs))
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}

	// build is one setup pass: a fresh broker holding every subscription.
	build := func(traced bool, ledger *owedLedger) (*pubsub.Broker, time.Duration, samples, error) {
		tree, err := newTree()
		if err != nil {
			return nil, 0, nil, err
		}
		var eng engine.Engine = tree
		if rec != nil {
			eng = &tracedEngine{FilterUpdater: tree, rec: rec}
			rec.enable(traced)
			defer rec.enable(false)
		}
		writes := make(samples, 0, len(filters))
		start := time.Now()
		b, err := pubsub.New(space, eng, gatewayPolicy())
		if err != nil {
			return nil, 0, nil, err
		}
		for i, f := range filters {
			id := ids[i]
			t0 := time.Now()
			op, ts := rec.begin()
			if queued(id) {
				err = b.SubscribeFunc(id, f, ledger.handler(clock, id))
			} else {
				err = b.Subscribe(id, f)
			}
			rec.end(op, "op.Subscribe", ts)
			writes.add(time.Since(t0))
			if err != nil {
				b.Close()
				return nil, 0, nil, fmt.Errorf("subscribe %d: %w", id, err)
			}
		}
		return b, time.Since(start), writes, nil
	}

	// measure runs the closed-loop publisher against b for d.
	batch := 0
	measure := func(b *pubsub.Broker, ledger *owedLedger, d time.Duration) (ph phase) {
		clock.record(true)
		defer clock.record(false)
		start := time.Now()
		var oracleTime time.Duration
		for time.Since(start)-oracleTime < d {
			k0 := (batch * hotspotBatch) % len(evs)
			bevs := evs[k0 : k0+hotspotBatch]
			batch++
			t0 := clock.now()
			for k := range bevs {
				clock.start[k0+k].Store(t0)
			}
			op, ts := rec.begin()
			notes, err := b.PublishBatch(1, bevs)
			rec.end(op, "op.PublishBatch", ts)
			t1 := clock.now()
			for k := range bevs {
				clock.ret[k0+k].Store(t1)
			}
			ph.pub = append(ph.pub, t1-t0)
			ph.events += len(bevs)
			r.attempted += len(bevs)
			if err != nil {
				r.failed += len(bevs) - 1
				r.fail("PublishBatch: %v", err)
				continue
			}
			for k, n := range notes {
				if len(n.FalseNegatives) > 0 {
					r.fail("event %v: false negatives %v", bevs[k], n.FalseNegatives)
				}
				ledger.note(n)
				ph.note(n)
			}
			if batch%hotspotOracle == 0 {
				o0 := time.Now()
				k := (batch / hotspotOracle) % hotspotBatch
				if want := oracle(ids, filters, bevs[k]); !slices.Equal(want, notes[k].Interested) {
					r.fail("event %v: Interested %d subscribers, oracle %d", bevs[k], len(notes[k].Interested), len(want))
				}
				oracleTime += time.Since(o0)
			}
		}
		ph.busy = time.Since(start) - oracleTime
		return ph
	}

	// Each setup pass is measured for an equal share of the run, in
	// short windows, so the figures take the median over many windows on
	// independently built brokers. A traced run traces the second half
	// of the windows of every pass (and the last pass's setup); the
	// first half is its untraced baseline, on the same brokers, for the
	// overhead.
	var (
		setups, heaps []float64
		wins          []phase
		untraced      phase
		traced        phase
	)
	nwin := windowsPerPass(cfg, hotspotWindow)
	for pass := 0; pass < setupPasses; pass++ {
		last := pass == setupPasses-1
		ledger := newOwedLedger()
		b, took, writes, err := build(cfg.trace && last, ledger)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		heaps = append(heaps, heapMB())
		r.attempted += len(writes)
		got0 := clock.got.Load()
		for w := 0; w < nwin; w++ {
			tracedHalf := cfg.trace && w >= nwin/2
			if rec != nil {
				rec.enable(tracedHalf)
			}
			ph := measure(b, ledger, hotspotWindow)
			if rec != nil {
				rec.enable(false)
			}
			if w == nwin-1 {
				enq, dropped, high := settle(r, b, clock, got0, ledger)
				if cfg.trace && last {
					brokerLayers(r, b, enq, dropped, high)
				}
			}
			ph.notify, ph.wait = clock.take()
			if w == 0 {
				ph.write = writes
			}
			if tracedHalf {
				traced.merge(ph)
			} else {
				untraced.merge(ph)
				wins = append(wins, ph)
			}
		}
		b.Close()
	}
	if st := clock.stale.Load(); st > 0 {
		r.fail("%d deliveries stamped before their publish", st)
	}

	r.e2e["setup_s"] = metric{Value: median(setups), Unit: "s", n: len(setups)}
	r.e2e["heap_mb"] = metric{Value: median(heaps), Unit: "MB", n: len(heaps)}
	perSec := rateMedian(wins, func(p *phase) int { return p.events })
	r.e2e["throughput_per_s"] = metric{Value: perSec, Unit: "1/s", n: len(wins)}
	r.extra["throughput_eps"] = metric{Value: perSec, Unit: "1/s", n: len(wins)}
	timing(r, "publish", perWindow(wins, func(p *phase) samples { return p.pub }))
	timing(r, "notify", perWindow(wins, func(p *phase) samples { return p.notify }))
	timing(r, "write", perWindow(wins, func(p *phase) samples { return p.write }))
	r.logf("throughput: per-window events/s %.0f", windowRates(wins, func(p *phase) int { return p.events }))
	r.logf("publish latency is per PublishBatch call of %d events; write latency is the setup's Subscribe calls; throughput and latencies are medians over %d windows", hotspotBatch, len(wins))
	if !cfg.trace {
		return r, nil
	}

	layerCommon(r, evs)
	layerCounts(r, traced)
	ops, _ := rec.aggregate()
	pb := ops["op.PublishBatch"]
	batchNs := pb.durs.mean()
	coreNs := float64(pb.childNs("core.PublishBatch")) / float64(len(pb.durs))
	filterNs := r.layer["filter.point_ns_per_event"].Value * hotspotBatch
	selfNs := batchNs - coreNs - filterNs
	waitNs := traced.wait.mean()
	notifyNs := traced.notify.mean()
	r.layer["pubsub.classify_self_us_per_event"] = metric{Value: selfNs / hotspotBatch / 1e3, Unit: "us"}
	r.layer["core.publish_us_per_event"] = metric{Value: coreNs / hotspotBatch / 1e3, Unit: "us"}
	r.layer["eventbus.queue_wait_us_p50"] = metric{Value: traced.wait.sorted().quantile(0.5) / 1e3, Unit: "us", n: len(traced.wait)}
	share(r, "filter", filterNs, notifyNs)
	share(r, "core", coreNs, notifyNs)
	share(r, "pubsub", selfNs, notifyNs)
	share(r, "eventbus", waitNs, notifyNs)
	sum := filterNs + coreNs + selfNs + waitNs
	r.logf("notify breakdown (means, us): filter %.1f + core %.1f + pubsub self %.1f + eventbus wait %.1f = %.1f; traced notify mean %.1f (layers sum to %.1f%%)",
		filterNs/1e3, coreNs/1e3, selfNs/1e3, waitNs/1e3, sum/1e3, notifyNs/1e3, 100*sum/notifyNs)
	writeBreakdown(r, ops)
	overhead(r, untraced.pub, traced.pub, "publish")
	overhead(r, untraced.notify, traced.notify, "notify")
	writeSpans(r, rec)
	return r, nil
}

// zipfMix interleaves layouts independent ZipfEvents streams (16x16
// cells, s=1.5) into n points.
func zipfMix(in *rand.Rand, n, layouts int) []geom.Point {
	streams := make([][]geom.Point, layouts)
	for i := range streams {
		streams[i] = workload.ZipfEvents(in, world, n/layouts, 16, 1.5)
	}
	out := make([]geom.Point, 0, n)
	for k := 0; k < n/layouts; k++ {
		for _, st := range streams {
			out = append(out, st[k])
		}
	}
	return out
}

// writeBreakdown reports, per subscription-changing operation, its mean
// self time (span minus engine and journal children) and the mean time
// of each engine call those operations made.
func writeBreakdown(r *result, ops map[string]*opStats) {
	writeOps := []struct{ op, name string }{
		{"op.Subscribe", "subscribe"}, {"op.UpdateFilter", "update"}, {"op.Unsubscribe", "unsubscribe"},
	}
	for _, kind := range writeOps {
		o := ops[kind.op]
		if o == nil || len(o.durs) == 0 {
			continue
		}
		n := float64(len(o.durs))
		self := o.durs.mean() - float64(o.childNs())/n
		r.layer["pubsub.write_self_us."+kind.name] = metric{Value: self / 1e3, Unit: "us", n: len(o.durs)}
		r.logf("%s: n=%d mean %.2fus = pubsub self %.2fus + core %.2fus + state %.2fus",
			kind.name, len(o.durs), o.durs.mean()/1e3, self/1e3,
			float64(o.childNs("core.Join", "core.Leave", "core.UpdateFilter"))/n/1e3,
			float64(o.childNs("state.Append"))/n/1e3)
	}
	for _, c := range []struct{ span, name string }{
		{"core.Join", "core.join_us"}, {"core.Leave", "core.leave_us"}, {"core.UpdateFilter", "core.update_filter_us"},
	} {
		var t int64
		var n int
		for _, kind := range writeOps {
			if o := ops[kind.op]; o != nil {
				t += o.children[c.span]
				n += o.childN[c.span]
			}
		}
		if n > 0 {
			r.layer[c.name] = metric{Value: float64(t) / float64(n) / 1e3, Unit: "us", n: n}
		}
	}
}

// overhead reports a traced stretch's p50 against the untraced one's.
func overhead(r *result, untraced, traced samples, name string) {
	u, t := untraced.sorted().quantile(0.5), traced.sorted().quantile(0.5)
	if u == 0 {
		return
	}
	r.logf("tracing overhead %s_p50: untraced %.1fus, traced %.1fus (%+.1f%%)", name, u/1e3, t/1e3, 100*(t-u)/u)
}
