// Command perfbench is the repository's benchmark. It builds one workload
// through the program's public packages, runs it for a fixed simulated
// horizon again and again for a wall-clock budget, checks the outputs, and
// prints the end-to-end metrics (--trace 0) or, from a separate traced run,
// the per-layer metrics (--trace 1). The last line of standard output is one
// JSON object; README.md describes the workloads and metrics.
//
//	bash perfbench/run.sh --workload e2e-grid --seed 3 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	"repro/internal/sim"
)

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	// horizon overrides every spec's simulated horizon (smoke tests).
	horizon sim.Duration
}

func main() {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name, or all to run each in turn")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 30, "wall-clock seconds to measure")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench-out"), "directory for the traced run's output")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if trace != 0 && trace != 1 || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace takes 0 or 1 and --seconds must be positive")
		os.Exit(2)
	}
	o.trace = trace == 1
	names := []string{o.workload}
	if o.workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, name := range names {
		o.workload = name
		if err := run(o, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run measures one workload and prints its report. Any failed check is an
// error, and then no result line is printed.
func run(o options, stdout io.Writer) error {
	w, ok := workloadByName(o.workload)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q (have %v)", o.workload, names)
	}
	pinned := pinEnvironment()
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%t\n", w.name, o.seed, o.seconds, o.trace)
	fmt.Fprintf(stdout, "# go=%s nproc=%d GOMAXPROCS=%d shards=%d %s\n", runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), shardsOf(w), pinned)

	bo := buildOpts{seed: o.seed, horizon: o.horizon}
	var res result
	var err error
	if o.trace {
		res, err = measureLayers(w, bo, o, stdout)
	} else {
		res, err = measureEndToEnd(w, bo, o.seconds, stdout)
	}
	if err != nil {
		return err
	}
	res.Correct = true
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// pinEnvironment clears the variables that would switch the program off its
// default pair-state backend and event queue, and keeps GOMAXPROCS at or
// below the CPU count. It describes what it did.
func pinEnvironment() string {
	desc := "env=default"
	for _, v := range []string{"REPRO_BACKEND", "REPRO_QUEUE"} {
		if val, ok := os.LookupEnv(v); ok {
			os.Unsetenv(v)
			desc += fmt.Sprintf(" cleared:%s=%q", v, val)
		}
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	return desc
}

func shardsOf(w *workload) int {
	if w.sharded {
		return shardCount()
	}
	return 1
}

// rep is one repetition: build one sub-seed of the workload, run it, collect.
type rep struct {
	sub   int
	setup float64 // wall seconds
	// setupRef is the wall seconds of the reference work run after set-up.
	setupRef float64
	run      float64 // wall seconds
	// scaled is run with each slice's wall time scaled to the reference
	// speed measured right after it, and refs holds those reference times.
	scaled float64
	refs   []float64
	res    simResult
	allocs uint64
	bytes  uint64
	gcs    uint32
	// rec holds the repetition's spans.
	rec *recorder
	// early is the result after checkSlices slices, when asked for.
	early *simResult
}

// setupSteps are the set-up spans reported as per-layer metrics.
var setupSteps = []string{"scenario.compile", "netsim.build", "photonics.calibrate", "network.build"}

// checkSlices is the short window of the repeat and shard-parity checks, in
// slices of the horizon.
const checkSlices = 2

// subSeed is the engine seed of a workload seed's sub-seed i.
func subSeed(seed int64, i int) int64 { return sim.DeriveSeed(seed, uint64(i)) }

// runRep builds sub-seed sub of the workload and runs the first n slices of
// its horizon, recording spans into a recorder of its own. A traced
// repetition gets a fresh tracer and registry through the network and
// service configuration, and engine observers before it runs. With early
// set it also keeps the result after checkSlices slices.
func runRep(w *workload, bo buildOpts, sub, n int, traced, early bool) (rep, *instance, error) {
	bo.seed = subSeed(bo.seed, sub)
	if traced {
		shards := shardsOf(w)
		if bo.shards > 0 {
			shards = bo.shards
		}
		bo.obs = newObservers(shards)
	}
	rec := newRecorder()
	root := rec.begin("setup", -1)
	in, err := build(w, bo, rec, root)
	if err != nil {
		return rep{}, nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	r := rep{sub: sub, setup: rec.end(root), rec: rec}
	sp := rec.begin("reference", -1)
	reference()
	r.setupRef = rec.end(sp)
	if traced {
		bo.obs.attach(in)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	runSpan := rec.begin("run", -1)
	from := 0
	if early {
		r.run, r.scaled, r.refs = in.runSlices(0, checkSlices, rec, runSpan)
		e, err := in.collect()
		if err != nil {
			return rep{}, nil, fmt.Errorf("%s: %w", w.name, err)
		}
		r.early = &e
		from = checkSlices
	}
	wall, scaled, refs := in.runSlices(from, n, rec, runSpan)
	r.run += wall
	r.scaled += scaled
	r.refs = append(r.refs, refs...)
	rec.end(runSpan)
	runtime.ReadMemStats(&m1)
	r.allocs = m1.Mallocs - m0.Mallocs
	r.bytes = m1.TotalAlloc - m0.TotalAlloc
	r.gcs = m1.NumGC - m0.NumGC
	r.res, err = in.collect()
	if err != nil {
		return rep{}, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return r, in, nil
}

// maxReps bounds the repetitions of one measuring loop.
const maxReps = 200

// repeat runs full repetitions, one at a time, over sub-seeds 0, 1, ...,
// subs-1, 0, 1, ...: at least minReps, then more while another is expected
// to end within budget wall seconds. A repetition of a sub-seed already run
// must compute the same result. The first repetition keeps its early result
// for the short-window checks, and the process's peak RSS after it is
// returned. It also returns the instance of the last repetition.
func repeat(w *workload, bo buildOpts, subs, minReps int, budget float64, traced bool) ([]rep, *instance, float64, error) {
	start := time.Now()
	var reps []rep
	var last *instance
	var rss float64
	more := func() bool {
		if len(reps) < minReps {
			return true
		}
		elapsed := time.Since(start).Seconds()
		return elapsed+elapsed/float64(len(reps)) <= budget && len(reps) < maxReps
	}
	for more() {
		runtime.GC()
		n := len(reps)
		r, in, err := runRep(w, bo, n%subs, sliceCount, traced, n == 0)
		if err != nil {
			return nil, nil, 0, err
		}
		if n == 0 {
			rss = peakRSSMB()
		}
		if n >= subs {
			if err := sameSim(reps[r.sub].res, r.res, fmt.Sprintf("sub-seed %d", r.sub), "its repetition"); err != nil {
				return nil, nil, 0, err
			}
		}
		reps = append(reps, r)
		last = in
	}
	return reps, last, rss, nil
}

// timed drops the first repetition, which warms the process up, from the
// host-time medians (unless it is the only one).
func timed(reps []rep) []rep {
	if len(reps) > 1 {
		return reps[1:]
	}
	return reps
}

// simPerWall is the median over the timed repetitions of simulated seconds
// per wall second, with the wall time scaled to the reference speed (see
// reference).
func simPerWall(reps []rep) float64 {
	return median(timed(reps), func(r rep) float64 { return r.res.SimSeconds / r.scaled })
}

// rawSimPerWall is simPerWall without the scaling, and refMedian the median
// wall seconds of the reference work over the timed repetitions.
func rawSimPerWall(reps []rep) float64 {
	return median(timed(reps), func(r rep) float64 { return r.res.SimSeconds / r.run })
}

func refMedian(reps []rep) float64 {
	var v []float64
	for _, r := range timed(reps) {
		v = append(v, r.refs...)
	}
	return medianOf(v)
}

// sameSim reports an error unless two runs computed identical simulated
// results.
func sameSim(a, b simResult, an, bn string) error {
	if reflect.DeepEqual(a, b) {
		return nil
	}
	a.TTP, b.TTP = nil, nil
	return fmt.Errorf("simulated results differ between %s and %s:\n  %+v\n  %+v", an, bn, a, b)
}

// checkShort reruns sub-seed 0 on the short window, on the same engine and,
// for a sharded workload, on the serial engine, and requires both to match
// the first repetition's early result.
func checkShort(w *workload, bo buildOpts, first rep) (int, error) {
	again, _, err := runRep(w, bo, 0, checkSlices, false, false)
	if err != nil {
		return 0, err
	}
	if err := sameSim(*first.early, again.res, "sub-seed 0", "its short repetition"); err != nil {
		return 0, err
	}
	if !w.sharded {
		return 1, nil
	}
	bo.shards = 1
	serial, _, err := runRep(w, bo, 0, checkSlices, false, false)
	if err != nil {
		return 0, err
	}
	// The barrier counters exist only on the sharded engine.
	sharded := *first.early
	sharded.Layer = maps.Clone(sharded.Layer)
	for _, k := range []string{"sim.windows", "sim.merged", "sim.events_per_window"} {
		delete(sharded.Layer, k)
	}
	if err := sameSim(sharded, serial.res, fmt.Sprintf("the %d-shard run", shardCount()), "the serial run"); err != nil {
		return 0, err
	}
	return 2, nil
}

// measureEndToEnd runs untraced repetitions over the spec's sub-seeds (its
// run.trials) for the budget and reports the end-to-end metrics: host
// metrics as medians over repetitions, simulated metrics pooled over the
// sub-seeds.
func measureEndToEnd(w *workload, bo buildOpts, budget float64, stdout io.Writer) (result, error) {
	c, err := compileSpec(w, bo)
	if err != nil {
		return result{}, err
	}
	reps, _, rss, err := repeat(w, bo, c.Trials, c.Trials, budget, false)
	if err != nil {
		return result{}, err
	}
	checks, err := checkShort(w, bo, reps[0])
	if err != nil {
		return result{}, err
	}
	var subs []simResult
	for _, r := range reps[:c.Trials] {
		subs = append(subs, r.res)
	}
	p := pooled(subs)
	s := p.service()
	fmt.Fprintf(stdout, "# %d repetitions over %d sub-seeds of %gs simulated; pooled: requests offered=%d completed=%d failed=%d outstanding=%d, pairs=%d, ttp samples=%d, failed_ratio=%.6g, floor_miss_ratio=%.6g\n",
		len(reps), c.Trials, c.Seconds, p.Offered, p.Completed, p.Failed, p.Outstanding, p.Pairs, len(p.TTP), s.FailedRatio, s.FloorMiss)
	fmt.Fprintf(stdout, "# host: unscaled sim_s_per_wall_s=%.6g setup_s=%.6g; reference median %.6gs against %gs nominal\n",
		rawSimPerWall(reps), median(reps, func(r rep) float64 { return r.setup }), refMedian(reps), refNominal)
	if p.Pairs == 0 || p.Completed == 0 {
		return result{}, fmt.Errorf("%s delivered no pairs or completed no requests", w.name)
	}
	if len(p.TTP) < 100 {
		return result{}, fmt.Errorf("%s: %d time-to-pair samples leave fewer than 10 beyond p90", w.name, len(p.TTP))
	}
	m := map[string]metric{
		"sim_s_per_wall_s": {simPerWall(reps), "s/s"},
		"setup_s":          {median(reps, func(r rep) float64 { return r.setup * refNominal / r.setupRef }), "s"},
		"peak_rss_mb":      {rss, "MB"},
		"pairs_per_sim_s":  {s.PairsPerSimS, "1/s"},
		"ttp_p50_ms":       {s.TTPP50ms, "ms"},
		"ttp_p90_ms":       {s.TTPP90ms, "ms"},
		"served_ratio":     {s.ServedRatio, "ratio"},
		"fidelity_mean":    {s.FidelityMean, "fidelity"},
		"floor_met_ratio":  {s.FloorMet, "ratio"},
	}
	return result{Attempted: len(reps) + checks, Metrics: m}, nil
}

// median returns the median of f over the repetitions.
func median(reps []rep, f func(rep) float64) float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	return medianOf(v)
}

// medianOf returns the median of v, sorting v.
func medianOf(v []float64) float64 {
	slices.Sort(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// peakRSSMB is the process's peak resident set size so far in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
