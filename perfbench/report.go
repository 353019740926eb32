package main

import "fmt"

// e2eKeys are the end-to-end metrics every workload reports with
// --trace 0 (BENCHMARK.json "end_to_end").
var e2eKeys = []string{
	"setup_s", "heap_mb", "throughput_per_s",
	"publish_p50_us", "notify_p50_us", "write_p50_us",
}

// layerKeys are the per-layer metrics every workload reports with
// --trace 1 (BENCHMARK.json "per_layer"), with their units. A layer a
// workload does not exercise reports zero; the compile and codec
// timings are measured on every workload's own events.
var layerKeys = []struct{ name, unit string }{
	{"filter.point_ns_per_event", "ns"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"pubsub.classify_self_us_per_event", "us"},
	{"core.publish_us_per_event", "us"},
	{"eventbus.queue_wait_us_p50", "us"},
	{"pubsub.write_self_us.subscribe", "us"},
	{"pubsub.write_self_us.update", "us"},
	{"pubsub.write_self_us.unsubscribe", "us"},
	{"core.join_us", "us"},
	{"core.leave_us", "us"},
	{"core.update_filter_us", "us"},
	{"state.append_us_p50", "us"},
	{"state.append_us_p99", "us"},
	{"state.snapshot_ms", "ms"},
	{"state.replay_ms", "ms"},
	{"pubsub.recover_self_ms", "ms"},
	{"drtreed.publish_ack_us_p50", "us"},
	{"loadgen.max_late_us", "us"},
	{"filter.share_pct", "%"},
	{"core.share_pct", "%"},
	{"pubsub.share_pct", "%"},
	{"eventbus.share_pct", "%"},
	{"state.share_pct", "%"},
	{"proto.share_pct", "%"},
	{"drtreed.share_pct", "%"},
	{"loadgen.share_pct", "%"},
	{"pubsub.scan_visited_per_event", "count"},
	{"pubsub.gateway_visited_per_event", "count"},
	{"pubsub.received_per_event", "count"},
	{"pubsub.fp_ratio", "ratio"},
	{"pubsub.gateways", "count"},
	{"pubsub.full_reunions", "count"},
	{"core.msgs_per_event", "count"},
	{"eventbus.enqueued", "count"},
	{"eventbus.dropped", "count"},
	{"eventbus.high_water", "count"},
	{"state.appends", "count"},
	{"state.snapshots", "count"},
	{"state.compactions", "count"},
	{"transport.msgs_per_event", "count"},
	{"transport.dropped", "count"},
	{"transport.bounced", "count"},
	{"transport.reconnects", "count"},
	{"loadgen.backlog", "count"},
}

// finish checks that a workload filled every end-to-end metric and
// completes the per-layer set with zeros for layers it does not touch.
func (r *result) finish(trace bool) error {
	if !trace {
		for _, k := range e2eKeys {
			if _, ok := r.e2e[k]; !ok {
				return fmt.Errorf("%s: end-to-end metric %s not measured", r.workload, k)
			}
		}
		if len(r.e2e) != len(e2eKeys) {
			return fmt.Errorf("%s: %d end-to-end metrics, %d declared", r.workload, len(r.e2e), len(e2eKeys))
		}
		return nil
	}
	for _, k := range layerKeys {
		m, ok := r.layer[k.name]
		if !ok {
			r.layer[k.name] = metric{Unit: k.unit}
			continue
		}
		if m.Unit != k.unit {
			return fmt.Errorf("%s: per-layer metric %s in %s, want %s", r.workload, k.name, m.Unit, k.unit)
		}
	}
	for k := range r.layer {
		if !isLayerKey(k) {
			return fmt.Errorf("%s: per-layer metric %s is not declared", r.workload, k)
		}
	}
	return nil
}

func isLayerKey(k string) bool {
	for _, lk := range layerKeys {
		if lk.name == k {
			return true
		}
	}
	return false
}
