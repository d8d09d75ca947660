package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
)

// layerNames lists the per-layer metrics in report order. README.md says
// which end-to-end metric each should move, on which workload.
var layerNames = func() []string {
	names := []string{
		"sim.events", "sim.wall_ns_per_event", "sim.batch_mean", "sim.pending_mean",
		"sim.windows", "sim.merged", "sim.events_per_window", "sim.window_sim_us_mean",
		"mhp.attempts", "mhp.wall_ns_per_attempt", "mhp.success_ratio",
		"photonics.calibrate_s",
		"egp.oks", "egp.errors", "egp.expires", "egp.ok_ratio", "egp.queue_mean", "egp.queue_max",
		"egp.latency_p50_ms", "egp.latency_p90_ms", "egp.ttp_p90_ms.nl", "egp.ttp_p90_ms.ck", "egp.ttp_p90_ms.md",
		"netsim.build_s", "netsim.submitted", "netsim.oks", "netsim.fault_events", "netsim.downtime_s", "netsim.recover_s",
		"network.swaps", "network.frames_sent", "network.reroutes", "network.retries", "network.noroute",
		"network.swap_p50_ms", "network.swap_p90_ms", "network.fidelity_gap", "network.build_s",
	}
	for _, c := range prioName {
		names = append(names, "workload."+c+".offered", "workload."+c+".timeout_ratio", "workload."+c+".ttp_p90_ms")
	}
	names = append(names, "workload.oldest_wait_s", "scenario.compile_s",
		"runtime.allocs_per_event", "runtime.bytes_per_event", "runtime.gc_cycles")
	for _, m := range cpuModules {
		names = append(names, m+".cpu_share")
	}
	return append(names, "obs.trace_overhead")
}()

// layerUnit is a per-layer metric's unit, read off its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"), strings.Contains(name, "_ms."):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_us_mean"):
		return "us"
	case strings.Contains(name, "wall_ns_"):
		return "ns"
	case strings.HasSuffix(name, "bytes_per_event"):
		return "B"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_share"),
		strings.HasSuffix(name, "_overhead"), strings.HasSuffix(name, "_gap"):
		return "ratio"
	}
	return "count"
}

// report adds the per-layer metrics only the traced run has: engine
// observer statistics and the metrics registry.
func (o *observers) report(layers map[string]float64) {
	var b batchStats
	for _, s := range o.shards {
		b.batches += s.batches
		b.events += s.events
		b.pending += s.pending
	}
	layers["sim.batch_mean"] = ratio(float64(b.events), float64(b.batches))
	layers["sim.pending_mean"] = ratio(float64(b.pending), float64(b.batches))
	layers["sim.window_sim_us_mean"] = ratio(float64(o.windowSimNs)/1e3, float64(o.windows))

	snap := o.registry.Snapshot(0)
	for _, name := range []string{"egp.oks", "egp.errors", "egp.expires", "netsim.submitted", "netsim.oks", "netsim.fault_events"} {
		layers[name] = float64(snap.Counters[name])
	}
	layers["mhp.success_ratio"] = ratio(float64(snap.Counters["mhp.successes"]), float64(snap.Counters["mhp.matched"]))
	for _, c := range prioName {
		layers["egp.ttp_p90_ms."+c] = float64(o.registry.Histogram("link.ttp_ns."+c).Quantile(0.9)) / 1e6
	}
}

// newObservers builds the traced run's tracer and registry for an engine of
// the given shard count.
func newObservers(shards int) *observers {
	return &observers{
		tracer:   obs.NewTracer(shards, traceCapacity),
		registry: obs.NewRegistry(),
		shards:   make([]batchStats, shards),
	}
}

// measureLayers runs untraced repetitions of sub-seed 0 for half the
// budget, then traced ones (tracer, metrics registry, engine observers and a
// CPU profile) for the other half, checks that all computed the same
// simulated results, writes the trace output and reports the per-layer
// metrics: simulated-time ones from the runs, host-time ones as medians over
// the untraced runs.
func measureLayers(w *workload, bo buildOpts, o options, stdout io.Writer) (result, error) {
	plain, _, _, err := repeat(w, bo, 1, 1, o.seconds/2, false)
	if err != nil {
		return result{}, err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	traced, in, _, err := repeat(w, bo, 1, 1, o.seconds/2, true)
	pprof.StopCPUProfile()
	if err != nil {
		return result{}, err
	}
	if err := sameSim(plain[0].res, traced[0].res, "the untraced run", "the traced run"); err != nil {
		return result{}, err
	}
	checks, err := checkShort(w, bo, plain[0])
	if err != nil {
		return result{}, err
	}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return result{}, err
	}

	s := plain[0].res
	layers := map[string]float64{}
	for _, name := range layerNames {
		layers[name] = s.Layer[name]
	}
	wall := median(plain, func(r rep) float64 { return r.scaled })
	layers["sim.wall_ns_per_event"] = wall * 1e9 / float64(s.Events)
	layers["mhp.wall_ns_per_attempt"] = wall * 1e9 / float64(s.Attempts)
	layers["runtime.allocs_per_event"] = median(plain, func(r rep) float64 { return float64(r.allocs) }) / float64(s.Events)
	layers["runtime.bytes_per_event"] = median(plain, func(r rep) float64 { return float64(r.bytes) }) / float64(s.Events)
	layers["runtime.gc_cycles"] = median(plain, func(r rep) float64 { return float64(r.gcs) })
	for _, name := range setupSteps {
		layers[name+"_s"] = median(plain, func(r rep) float64 { return r.rec.total(name) })
	}
	// Each traced repetition had its own tracer and registry; the last
	// one's are reported and written out.
	in.obs.report(layers)
	for _, m := range cpuModules {
		layers[m+".cpu_share"] = shares[m]
	}
	layers["obs.trace_overhead"] = 1 - simPerWall(traced)/simPerWall(plain)

	dir := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", w.name, o.seed))
	if err := writeTrace(dir, in, traced[len(traced)-1].rec, prof.Bytes(), layers); err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "# %d untraced and %d traced repetitions of sub-seed 0, %gs simulated; trace output in %s\n", len(plain), len(traced), s.SimSeconds, dir)

	m := map[string]metric{}
	for _, name := range layerNames {
		m[name] = metric{layers[name], layerUnit(name)}
	}
	return result{Attempted: len(plain) + len(traced) + checks, Metrics: m}, nil
}

// writeTrace writes the last traced repetition's output: the flight
// recorder in Chrome trace-event format, the metrics registry and the
// benchmark's spans; and the CPU profile of all traced repetitions and every
// per-layer metric.
func writeTrace(dir string, in *instance, rec *recorder, prof []byte, layers map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(io.Writer) error) error {
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644)
	}
	return errors.Join(
		write("trace.json", in.obs.tracer.WriteChrome),
		write("metrics.json", in.obs.registry.Snapshot(in.nw.Sim.Now()).WriteJSON),
		write("spans.json", rec.writeJSON),
		write("cpu.pprof", func(w io.Writer) error { _, err := w.Write(prof); return err }),
		write("layers.json", func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", " ")
			return enc.Encode(layers)
		}),
	)
}

// observers holds the traced run's tracer, registry and the statistics its
// engine observers gather.
type observers struct {
	tracer   *obs.Tracer
	registry *obs.Registry
	// shards[i] is written only by shard i's event loop.
	shards []batchStats
	// Window statistics are written by the coordinating goroutine while the
	// shards are parked.
	windows     uint64
	windowSimNs int64
}

type batchStats struct {
	batches, events, pending int64
}

// traceCapacity is the per-ring record capacity of the traced run: enough
// for the last stretch of activity while keeping the written trace small.
const traceCapacity = 1 << 14

// attach installs the engine observers on a traced instance. They replace
// the batch and window observers the network wired for the tracer, so they
// record the same records into its rings as well.
func (o *observers) attach(in *instance) {
	batch := func(i int) func(sim.Time, int, int) {
		ring := o.tracer.Ring(i, obs.LayerSim)
		st := &o.shards[i]
		return func(at sim.Time, n, pending int) {
			ring.Record(at, obs.KindBatch, uint64(i), int64(n), int64(pending))
			st.batches++
			st.events += int64(n)
			st.pending += int64(pending)
		}
	}
	se := in.nw.Sharded()
	if se == nil {
		in.nw.Sim.(*sim.Simulator).SetBatchObserver(batch(0))
		return
	}
	for i := 0; i < se.Shards(); i++ {
		se.Shard(i).SetBatchObserver(batch(i))
	}
	ring := o.tracer.Ring(0, obs.LayerSim)
	se.SetWindowObserver(func(start, end sim.Time, merged int) {
		ring.Record(end, obs.KindWindow, obs.BarrierTrack, int64(merged), int64(end.Sub(start)))
		o.windows++
		o.windowSimNs += int64(end.Sub(start))
	})
}
