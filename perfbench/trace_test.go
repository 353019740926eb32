package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"

	"drtree/internal/core"
	"drtree/internal/engine"
	"drtree/internal/pubsub"
	"drtree/internal/state"
	"drtree/internal/workload"
)

// tracedRun drives one broker through a fixed-seed script of
// subscribes, drifts, unsubscribes, publishes and a checkpoint, then
// recovers it into a fresh broker and probes that. With traced set, the
// engine and store are wrapped in the benchmark's timing decorators.
type tracedRun struct {
	notes     []pubsub.Notification
	recovered pubsub.RecoverStats
	gateways  int
	assign    map[core.ProcID]core.ProcID
	probes    []pubsub.Notification
}

func runScript(t *testing.T, rec *recorder) tracedRun {
	t.Helper()
	store := state.NewMem()
	open := func() *pubsub.Broker {
		tree, err := newTree()
		if err != nil {
			t.Fatal(err)
		}
		var eng engine.Engine = tree
		var st state.Store = store
		if rec != nil {
			eng = &tracedEngine{FilterUpdater: tree, rec: rec}
			st = &tracedStore{Store: store, rec: rec}
		}
		b, err := pubsub.New(space, eng, pubsub.WithGatewayPolicy(64, 2, 64),
			pubsub.WithStore(st), pubsub.WithSnapshotEvery(0))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	op := func(name string, f func() error) {
		t.Helper()
		id, start := rec.begin()
		err := f()
		rec.end(id, name, start)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	in := rng(7, 1)
	rects := workload.Subscriptions(in, world, workload.Uniform, 600)
	b := open()
	for i, r := range rects {
		op("op.Subscribe", func() error { return b.Subscribe(core.ProcID(i+1), rectFilter(r)) })
	}
	moved := workload.DriftRects(in, world, rects[:200], 0.02)
	for i, r := range moved {
		op("op.UpdateFilter", func() error { return b.UpdateFilter(core.ProcID(i+1), rectFilter(r)) })
	}
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for id := core.ProcID(300); id < 400; id++ {
		op("op.Unsubscribe", func() error { return b.Unsubscribe(id) })
	}
	evs := seqEvents(workload.ZipfEvents(in, world, 256, 16, 1.5))
	var run tracedRun
	for k := 0; k < len(evs); k += 16 {
		op("op.PublishBatch", func() error {
			notes, err := b.PublishBatch(1, evs[k:k+16])
			run.notes = append(run.notes, notes...)
			return err
		})
	}
	live := map[core.ProcID]bool{}
	for id := core.ProcID(1); id <= 600; id++ {
		if id < 300 || id >= 400 {
			live[id] = true
		}
	}
	b.Close()

	b2 := open()
	defer b2.Close()
	var err error
	op("op.Recover", func() error { run.recovered, err = b2.Recover(); return err })
	run.gateways = b2.Gateways()
	run.assign = map[core.ProcID]core.ProcID{}
	for id := range live {
		run.assign[id] = b2.GatewayOf(id)
	}
	op("op.PublishBatch", func() error {
		var err error
		run.probes, err = b2.PublishBatch(1, evs[:64])
		return err
	})
	return run
}

// TestTracedBrokerMatchesBare certifies that the timing decorators are
// transparent: over the decorated engine and store the broker returns
// the same notifications and recovers the same subscription set, pool
// and assignment as over the bare ones.
func TestTracedBrokerMatchesBare(t *testing.T) {
	bare := runScript(t, nil)
	rec := newRecorder()
	rec.enable(true)
	traced := runScript(t, rec)

	if !reflect.DeepEqual(bare.notes, traced.notes) {
		t.Fatal("notifications differ between the bare and the traced broker")
	}
	if bare.recovered != traced.recovered || bare.gateways != traced.gateways {
		t.Fatalf("recovery differs: bare %+v on %d gateways, traced %+v on %d",
			bare.recovered, bare.gateways, traced.recovered, traced.gateways)
	}
	if bare.recovered.Subscribers != 500 {
		t.Fatalf("recovered %d subscribers, want 500", bare.recovered.Subscribers)
	}
	if !reflect.DeepEqual(bare.assign, traced.assign) {
		t.Fatal("recovered gateway assignment differs")
	}
	if !reflect.DeepEqual(bare.probes, traced.probes) {
		t.Fatal("post-recovery notifications differ")
	}
	for _, n := range traced.probes {
		if len(n.FalseNegatives) > 0 {
			t.Fatalf("false negatives after recovery: %v", n.FalseNegatives)
		}
	}

	// Every layer span hangs off one of the benchmark's operations,
	// except the checkpoint's snapshot and compaction.
	ops, background := rec.aggregate()
	for _, name := range []string{"op.Subscribe", "op.UpdateFilter", "op.Unsubscribe", "op.PublishBatch", "op.Recover"} {
		if ops[name] == nil || len(ops[name].durs) == 0 {
			t.Fatalf("no %s spans", name)
		}
	}
	if ops["op.PublishBatch"].childN["core.PublishBatch"] != 17 {
		t.Fatalf("PublishBatch ops have %d engine children, want 17", ops["op.PublishBatch"].childN["core.PublishBatch"])
	}
	if n := ops["op.Subscribe"].childN["state.Append"]; n < 600 {
		t.Fatalf("Subscribe ops journaled %d records, want at least 600", n)
	}
	if ops["op.Recover"].childN["state.Replay"] != 1 {
		t.Fatal("Recover has no Replay child")
	}
	if len(background["state.Snapshot"]) != 1 || len(background["state.Compact"]) != 1 {
		t.Fatalf("background spans: %d snapshots, %d compactions, want 1 each",
			len(background["state.Snapshot"]), len(background["state.Compact"]))
	}
	for name := range background {
		if name != "state.Snapshot" && name != "state.Compact" {
			t.Fatalf("layer span %s has no parent operation", name)
		}
	}
}

// TestLayerKeysComplete checks that finish fills every declared
// per-layer metric and rejects undeclared ones.
func TestLayerKeysComplete(t *testing.T) {
	r := newResult("x")
	r.layer["filter.point_ns_per_event"] = metric{Value: 1, Unit: "ns"}
	if err := r.finish(true); err != nil {
		t.Fatal(err)
	}
	if len(r.layer) != len(layerKeys) {
		t.Fatalf("%d per-layer metrics, want %d", len(r.layer), len(layerKeys))
	}
	r.layer["bogus"] = metric{Unit: "ns"}
	if err := r.finish(true); err == nil {
		t.Fatal("undeclared per-layer metric accepted")
	}
	if err := newResult("y").finish(false); err == nil {
		t.Fatal("missing end-to-end metrics accepted")
	}
}

// TestBenchmarkManifest checks that BENCHMARK.json at the repository
// root declares exactly the metrics the workloads report, with the same
// units, and only workloads the command knows.
func TestBenchmarkManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, w := range m.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	var e2e []string
	for _, e := range m.EndToEnd {
		e2e = append(e2e, e.Name)
	}
	if !slices.Equal(e2e, e2eKeys) {
		t.Errorf("end_to_end %v, the workloads report %v", e2e, e2eKeys)
	}
	if len(m.PerLayer) != len(layerKeys) {
		t.Fatalf("%d per_layer metrics, the workloads report %d", len(m.PerLayer), len(layerKeys))
	}
	for i, l := range m.PerLayer {
		if l.Name != layerKeys[i].name || l.Unit != layerKeys[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), want %s (%s)", i, l.Name, l.Unit, layerKeys[i].name, layerKeys[i].unit)
		}
	}
}
