package main

// churn: 20k small square subscriptions (~2 matches per event) on a
// durable in-process broker over the sequential engine and a WAL. Each
// setup pass restarts the broker from a checkpointed WAL image of the
// initial set. One closed-loop client mixes publishes with subscription
// changes, then the broker is closed and recovered from its WAL into a
// fresh one.
// Writes sit beside reads on the same pubsub/rtree/engine code, while
// classification is nearly bypassed.

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"time"

	"drtree/internal/core"
	"drtree/internal/engine"
	"drtree/internal/filter"
	"drtree/internal/geom"
	"drtree/internal/pubsub"
	"drtree/internal/state"
	"drtree/internal/workload"
)

const (
	churnSubs   = 20_000
	churnSide   = 10.0                   // square side: 20k * 10^2 / 1000^2 = 2 expected matches per event
	churnQueued = 8                      // every churnQueued-th subscription is queue-backed
	churnEvents = 65536                  // distinct events the client cycles through
	churnOracle = 64                     // publishes between brute-force oracle checks
	churnWindow = 250 * time.Millisecond // one measurement window
	churnProbes = 1024                   // post-recovery probe publishes
)

// churnMix is the operation mix, in percent.
var churnMix = []struct {
	op  string
	pct int
}{{"publish", 70}, {"update", 20}, {"subscribe", 5}, {"unsubscribe", 5}}

// liveSet is the benchmark's own record of the live subscriptions: the
// oracle every check runs against.
type liveSet struct {
	ids   []core.ProcID
	fs    []filter.Filter
	rects []geom.Rect
}

func (l *liveSet) add(id core.ProcID, r geom.Rect) {
	l.ids = append(l.ids, id)
	l.rects = append(l.rects, r)
	l.fs = append(l.fs, rectFilter(r))
}

func (l *liveSet) set(i int, r geom.Rect) {
	l.rects[i] = r
	l.fs[i] = rectFilter(r)
}

func (l *liveSet) remove(i int) {
	last := len(l.ids) - 1
	l.ids[i], l.fs[i], l.rects[i] = l.ids[last], l.fs[last], l.rects[last]
	l.ids, l.fs, l.rects = l.ids[:last], l.fs[:last], l.rects[:last]
}

func squareAt(in *rand.Rand) geom.Rect {
	x := in.Float64() * (world.Size - churnSide)
	y := in.Float64() * (world.Size - churnSide)
	return geom.R2(x, y, x+churnSide, y+churnSide)
}

func runChurn(cfg config) (*result, error) {
	r := newResult("churn")
	in := rng(cfg.seed, 2)
	initial := make([]geom.Rect, churnSubs)
	for i := range initial {
		initial[i] = squareAt(in)
	}
	evs := seqEvents(workload.Events(in, world, workload.UniformEvents, churnEvents, nil))
	queued := func(id core.ProcID) bool { return id%churnQueued == 0 }
	clock := newNotifyClock(len(evs))
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}

	// open builds a durable broker over a WAL in dir.
	open := func(dir string) (*pubsub.Broker, state.Store, error) {
		wal, err := state.OpenWAL(dir)
		if err != nil {
			return nil, nil, err
		}
		tree, err := newTree()
		if err != nil {
			wal.Close()
			return nil, nil, err
		}
		var eng engine.Engine = tree
		var st state.Store = wal
		if rec != nil {
			eng = &tracedEngine{FilterUpdater: tree, rec: rec}
			st = &tracedStore{Store: wal, rec: rec}
		}
		b, err := pubsub.New(space, eng, gatewayPolicy(), pubsub.WithStore(st))
		if err != nil {
			wal.Close()
			return nil, nil, err
		}
		return b, st, nil
	}
	// build is one setup pass: a restart from the checkpointed image of
	// the initial subscriptions. It opens a copy of the image's WAL,
	// recovers the broker from it, repairs the overlay and re-attaches
	// the queue-backed subscribers. Copying the image is not timed.
	build := func(image, dir string, ledger *owedLedger) (*pubsub.Broker, state.Store, time.Duration, error) {
		if err := copyFiles(image, dir); err != nil {
			return nil, nil, 0, err
		}
		start := time.Now()
		b, st, err := open(dir)
		if err != nil {
			return nil, nil, 0, err
		}
		fail := func(err error) (*pubsub.Broker, state.Store, time.Duration, error) {
			b.Close()
			st.Close()
			return nil, nil, 0, err
		}
		rs, err := b.Recover()
		if err != nil {
			return fail(fmt.Errorf("setup recover: %w", err))
		}
		if rs.Subscribers != len(initial) {
			return fail(fmt.Errorf("setup recovered %d subscribers, the image holds %d", rs.Subscribers, len(initial)))
		}
		b.Repair()
		for i := range initial {
			if id := core.ProcID(i + 1); queued(id) {
				if err := b.AttachFunc(id, ledger.handler(clock, id)); err != nil {
					return fail(fmt.Errorf("setup attach %d: %w", id, err))
				}
			}
		}
		return b, st, time.Since(start), nil
	}

	nextID := core.ProcID(churnSubs + 1)
	var ops *rand.Rand // the client's choices, restarted every pass
	next := 0
	// measure runs the closed-loop client against b for d; live is the
	// benchmark's record of b's subscriptions and follows every change.
	// The benchmark's own bookkeeping (oracle checks, waiting out a
	// retiring subscriber's deliveries) is left out of the busy time.
	measure := func(b *pubsub.Broker, live *liveSet, ledger *owedLedger, d time.Duration) (ph phase) {
		clock.record(true)
		defer clock.record(false)
		start := time.Now()
		var checkTime time.Duration
		for time.Since(start)-checkTime < d {
			kind := pickOp(ops)
			if kind == "unsubscribe" && len(live.ids) < 2 {
				kind = "subscribe"
			}
			ph.ops++
			r.attempted++
			var err error
			var t0 time.Time
			switch kind {
			case "publish":
				producer := live.ids[ops.IntN(len(live.ids))]
				k := next % len(evs)
				next++
				ev := evs[k]
				c0 := clock.now()
				clock.start[k].Store(c0)
				op, ts := rec.begin()
				var n pubsub.Notification
				n, err = b.Publish(producer, ev)
				rec.end(op, "op.Publish", ts)
				c1 := clock.now()
				clock.ret[k].Store(c1)
				ph.pub = append(ph.pub, c1-c0)
				ph.events++
				if err != nil {
					break
				}
				if len(n.FalseNegatives) > 0 {
					r.fail("event %v: false negatives %v", ev, n.FalseNegatives)
				}
				ledger.note(n)
				ph.note(n)
				if ph.events%churnOracle == 0 {
					o0 := time.Now()
					if want := oracle(live.ids, live.fs, ev); !slices.Equal(want, n.Interested) {
						r.fail("event %v: Interested %v, oracle %v", ev, n.Interested, want)
					}
					checkTime += time.Since(o0)
				}
			case "update":
				i := ops.IntN(len(live.ids))
				moved := workload.DriftRects(ops, world, live.rects[i:i+1], 0.01)[0]
				t0 = time.Now()
				op, ts := rec.begin()
				err = b.UpdateFilter(live.ids[i], rectFilter(moved))
				rec.end(op, "op.UpdateFilter", ts)
				if err == nil {
					live.set(i, moved)
				}
			case "subscribe":
				id := nextID
				nextID++
				rc := squareAt(ops)
				t0 = time.Now()
				op, ts := rec.begin()
				if queued(id) {
					err = b.SubscribeFunc(id, rectFilter(rc), ledger.handler(clock, id))
				} else {
					err = b.Subscribe(id, rectFilter(rc))
				}
				rec.end(op, "op.Subscribe", ts)
				if err == nil {
					live.add(id, rc)
				}
			case "unsubscribe":
				i := ops.IntN(len(live.ids))
				r0 := time.Now()
				ledger.retire(b, live.ids[i])
				checkTime += time.Since(r0)
				t0 = time.Now()
				op, ts := rec.begin()
				err = b.Unsubscribe(live.ids[i])
				rec.end(op, "op.Unsubscribe", ts)
				if err == nil {
					live.remove(i)
				}
			}
			if kind != "publish" {
				ph.write.add(time.Since(t0))
			}
			if err != nil {
				r.fail("%s: %v", kind, err)
			}
		}
		ph.busy = time.Since(start) - checkTime
		return ph
	}

	// Each setup pass gets an equal share of the run, in short windows,
	// then is closed and recovered from its WAL into a fresh broker (the
	// last pass's recovery is traced in a traced run).
	var (
		setups, heaps, recovers []float64
		wins                    []phase
		untraced, traced        phase
		storeStats              state.Stats
	)
	image, err := buildImage(initial)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(image)
	nwin := windowsPerPass(cfg, churnWindow)
	for pass := 0; pass < setupPasses; pass++ {
		last := pass == setupPasses-1
		dir, err := tempDir("churn-")
		if err != nil {
			return nil, err
		}
		ledger := newOwedLedger()
		b, store, took, err := build(image, dir, ledger)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		setups = append(setups, took.Seconds())
		heaps = append(heaps, heapMB())
		live := &liveSet{}
		// Every pass replays the same operation stream from the initial
		// set, however many operations the previous pass got through.
		ops = rng(cfg.seed, 3)
		for i, rc := range initial {
			live.add(core.ProcID(i+1), rc)
		}
		// A traced run traces the second half of the windows of every
		// pass; the first half is its untraced baseline on the same
		// brokers.
		got0 := clock.got.Load()
		for w := 0; w < nwin; w++ {
			tracedHalf := cfg.trace && w >= nwin/2
			if rec != nil {
				rec.enable(tracedHalf)
			}
			stats0 := storeStatsOf(store)
			ph := measure(b, live, ledger, churnWindow)
			if rec != nil {
				rec.enable(false)
			}
			if tracedHalf {
				// The journal counters of the traced windows alone.
				st := storeStatsOf(store)
				storeStats.Appended += st.Appended - stats0.Appended
				storeStats.Snapshots += st.Snapshots - stats0.Snapshots
				storeStats.Compactions += st.Compactions - stats0.Compactions
			}
			if w == nwin-1 {
				enq, dropped, high := settle(r, b, clock, got0, ledger)
				if cfg.trace && last {
					brokerLayers(r, b, enq, dropped, high)
				}
			}
			ph.notify, _ = clock.take()
			if tracedHalf {
				traced.merge(ph)
			} else {
				untraced.merge(ph)
				wins = append(wins, ph)
			}
		}
		took, err = closeAndRecover(r, b, store, dir, live, open, rec, cfg.trace && last, rng(cfg.seed, uint64(10+pass)))
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		recovers = append(recovers, took.Seconds())
	}
	if st := clock.stale.Load(); st > 0 {
		r.fail("%d deliveries stamped before their publish", st)
	}

	r.e2e["setup_s"] = metric{Value: median(setups), Unit: "s", n: len(setups)}
	r.e2e["heap_mb"] = metric{Value: median(heaps), Unit: "MB", n: len(heaps)}
	r.extra["recover_s"] = metric{Value: median(recovers), Unit: "s", n: len(recovers)}
	perSec := rateMedian(wins, func(p *phase) int { return p.ops })
	r.e2e["throughput_per_s"] = metric{Value: perSec, Unit: "1/s", n: len(wins)}
	r.extra["ops_per_s"] = metric{Value: perSec, Unit: "1/s", n: len(wins)}
	timing(r, "publish", perWindow(wins, func(p *phase) samples { return p.pub }))
	timing(r, "notify", perWindow(wins, func(p *phase) samples { return p.notify }))
	timing(r, "write", perWindow(wins, func(p *phase) samples { return p.write }))
	r.logf("throughput: per-window ops/s %.0f", windowRates(wins, func(p *phase) int { return p.ops }))
	r.logf("write latency covers Subscribe, UpdateFilter and Unsubscribe; throughput and latencies are medians over %d windows", len(wins))
	if !cfg.trace {
		return r, nil
	}

	layerCommon(r, evs)
	layerCounts(r, traced)
	spans, background := rec.aggregate()
	filterNs := r.layer["filter.point_ns_per_event"].Value
	var totalNs, coreNs, stateNs, filterTot float64
	var nOps int
	for name, o := range spans {
		if name == "op.Recover" {
			continue
		}
		nOps += len(o.durs)
		totalNs += o.durs.mean() * float64(len(o.durs))
		coreNs += float64(o.childNs("core.PublishBatch", "core.Join", "core.Leave", "core.UpdateFilter"))
		stateNs += float64(o.childNs("state.Append"))
		if name == "op.Publish" {
			filterTot += filterNs * float64(len(o.durs))
		}
	}
	if pb := spans["op.Publish"]; pb != nil {
		n := float64(len(pb.durs))
		core := float64(pb.childNs("core.PublishBatch")) / n
		r.layer["pubsub.classify_self_us_per_event"] = metric{Value: (pb.durs.mean() - core - filterNs) / 1e3, Unit: "us"}
		r.layer["core.publish_us_per_event"] = metric{Value: core / 1e3, Unit: "us"}
	}
	selfNs := totalNs - coreNs - stateNs - filterTot
	share(r, "filter", filterTot, totalNs)
	share(r, "core", coreNs, totalNs)
	share(r, "state", stateNs, totalNs)
	share(r, "pubsub", selfNs, totalNs)
	fn := float64(max(1, nOps))
	r.logf("op-time breakdown over %d traced ops (means, us/op): filter %.2f + core %.2f + state %.2f + pubsub self %.2f = %.2f; traced op mean %.2f",
		nOps, filterTot/fn/1e3, coreNs/fn/1e3, stateNs/fn/1e3, selfNs/fn/1e3, (filterTot+coreNs+stateNs+selfNs)/fn/1e3, totalNs/fn/1e3)
	writeBreakdown(r, spans)

	appends := rec.layerSamples("state.Append").sorted()
	r.layer["state.append_us_p50"] = metric{Value: appends.quantile(0.5) / 1e3, Unit: "us", n: len(appends)}
	r.layer["state.append_us_p99"] = metric{Value: appends.quantile(0.99) / 1e3, Unit: "us", n: len(appends)}
	if snaps := background["state.Snapshot"]; len(snaps) > 0 {
		r.layer["state.snapshot_ms"] = metric{Value: snaps.mean() / 1e6, Unit: "ms", n: len(snaps)}
	}
	if rc := spans["op.Recover"]; rc != nil {
		replay := float64(rc.childNs("state.Replay"))
		r.layer["state.replay_ms"] = metric{Value: replay / 1e6, Unit: "ms"}
		r.layer["pubsub.recover_self_ms"] = metric{Value: (rc.durs.mean() - replay) / 1e6, Unit: "ms"}
	}
	r.layer["state.appends"] = metric{Value: float64(storeStats.Appended), Unit: "count"}
	r.layer["state.snapshots"] = metric{Value: float64(storeStats.Snapshots), Unit: "count"}
	r.layer["state.compactions"] = metric{Value: float64(storeStats.Compactions), Unit: "count"}
	overhead(r, untraced.pub, traced.pub, "publish")
	overhead(r, untraced.notify, traced.notify, "notify")
	writeSpans(r, rec)
	return r, nil
}

// closeAndRecover closes a pass's broker and store, recovers the WAL in
// dir into a fresh broker, checks it against the benchmark's live set, and
// returns how long Recover took.
func closeAndRecover(r *result, b *pubsub.Broker, store state.Store, dir string, live *liveSet,
	open func(string) (*pubsub.Broker, state.Store, error), rec *recorder, traced bool, in *rand.Rand) (time.Duration, error) {
	gateways := b.Gateways()
	want := make(map[core.ProcID]core.ProcID, len(live.ids))
	for _, id := range live.ids {
		want[id] = b.GatewayOf(id)
	}
	if err := b.Close(); err != nil {
		store.Close()
		return 0, fmt.Errorf("close broker: %w", err)
	}
	if err := store.Close(); err != nil {
		return 0, fmt.Errorf("close store: %w", err)
	}
	b2, store2, err := open(dir)
	if err != nil {
		return 0, err
	}
	defer store2.Close()
	defer b2.Close()
	if rec != nil {
		rec.enable(traced)
		defer rec.enable(false)
	}
	start := time.Now()
	op, ts := rec.begin()
	st, err := b2.Recover()
	rec.end(op, "op.Recover", ts)
	took := time.Since(start)
	if rec != nil {
		rec.enable(false)
	}
	if err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	checkRecovered(r, b2, st, live, want, gateways, in)
	return took, nil
}

func storeStatsOf(s state.Store) state.Stats {
	if st, ok := s.(state.Stater); ok {
		return st.Stats()
	}
	return state.Stats{}
}

func pickOp(in *rand.Rand) string {
	x := in.IntN(100)
	for _, m := range churnMix {
		if x < m.pct {
			return m.op
		}
		x -= m.pct
	}
	return churnMix[0].op
}

// checkRecovered certifies the recovered broker against the benchmark's
// live set: same subscriber count, pool size and per-subscriber gateway,
// and probe publishes inside sampled live filters notify exactly the
// oracle's subscribers. Every live subscription is one attempted
// operation; each mismatch is a failure.
func checkRecovered(r *result, b *pubsub.Broker, st pubsub.RecoverStats, live *liveSet,
	want map[core.ProcID]core.ProcID, gateways int, in *rand.Rand) {
	r.attempted += len(live.ids) + churnProbes
	if st.Subscribers != len(live.ids) || b.Len() != len(live.ids) {
		r.fail("recovered %d subscribers (broker holds %d), the benchmark has %d live", st.Subscribers, b.Len(), len(live.ids))
	}
	if b.Gateways() != gateways {
		r.fail("recovered a %d-gateway pool, had %d", b.Gateways(), gateways)
	}
	for _, id := range live.ids {
		if got := b.GatewayOf(id); got != want[id] {
			r.fail("subscriber %d recovered onto gateway %d, was on %d", id, got, want[id])
		}
	}
	b.Repair()
	for p := 0; p < churnProbes; p++ {
		i := in.IntN(len(live.ids))
		rc := live.rects[i]
		ev := filter.Event{
			"x": rc.Lo(0) + in.Float64()*rc.Side(0),
			"y": rc.Lo(1) + in.Float64()*rc.Side(1),
		}
		n, err := b.Publish(live.ids[0], ev)
		if err != nil {
			r.fail("probe publish: %v", err)
			continue
		}
		if want := oracle(live.ids, live.fs, ev); len(n.FalseNegatives) > 0 || !slices.Equal(want, n.Interested) {
			r.fail("probe %v after recovery: Interested %v, oracle %v", ev, n.Interested, want)
		}
	}
}

// buildImage subscribes the initial set to a broker journaling into
// memory, checkpoints it, and writes the checkpoint as the snapshot of a
// fresh WAL directory: the durable image every setup pass restarts from.
// It runs once, before any timing; building it through a WAL directly
// would cost one fsync per subscription.
func buildImage(initial []geom.Rect) (string, error) {
	mem := state.NewMem()
	tree, err := newTree()
	if err != nil {
		return "", err
	}
	b, err := pubsub.New(space, tree, gatewayPolicy(), pubsub.WithStore(mem))
	if err != nil {
		return "", err
	}
	for i, rc := range initial {
		if err := b.Subscribe(core.ProcID(i+1), rectFilter(rc)); err != nil {
			b.Close()
			return "", fmt.Errorf("image subscribe: %w", err)
		}
	}
	err = b.Checkpoint()
	b.Close()
	if err != nil {
		return "", err
	}
	var blob []byte
	if err := mem.Replay(func(e state.Entry) error {
		if !e.Snapshot {
			return fmt.Errorf("image journal holds records past its checkpoint")
		}
		blob = slices.Clone(e.Data)
		return nil
	}); err != nil {
		return "", err
	}
	dir, err := tempDir("churn-image-")
	if err != nil {
		return "", err
	}
	wal, err := state.OpenWAL(dir)
	if err == nil {
		err = wal.Snapshot(blob)
		if cerr := wal.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		os.RemoveAll(dir)
		return "", err
	}
	return dir, nil
}

// copyFiles copies the regular files of directory src into dst.
func copyFiles(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), buf, 0o644); err != nil {
			return err
		}
	}
	return nil
}
