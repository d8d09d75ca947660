// Package bench is the repo's structured benchmark subsystem: a registry of
// end-to-end simulation scenarios (single link, 8-node chain, 3×3 grid,
// 4-hop repeater path) that are run for a fixed amount of simulated time and
// measured along two independent axes:
//
//   - deterministic work counters — simulator events executed, entanglement
//     attempts sampled, pairs delivered — which are byte-identical for a
//     given seed at any trial parallelism, and
//   - host-dependent cost — heap allocations and bytes per entanglement
//     attempt (measured on a dedicated serial pass with the GC paused) and,
//     optionally, wall-clock throughput (events per wall-second, simulated
//     seconds per wall-second).
//
// Results serialise to a stable JSON schema (BENCH_<scenario>.json, see
// Result) so CI can diff a fresh run against the committed baseline and fail
// on regressions; cmd/bench is the CLI front end.
package bench

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"repro/internal/egp"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/nv"
	"repro/internal/obs"
	"repro/internal/quantum"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Counters are the deterministic work counters of one running scenario
// instance, cumulative since construction.
type Counters struct {
	// Events is how many discrete-event callbacks the simulator has fired.
	Events uint64 `json:"events"`
	// Attempts is how many entanglement generation attempts were sampled at
	// the heralding midpoints.
	Attempts uint64 `json:"attempts"`
	// Pairs is how many entangled pairs the scenario's top layer delivered
	// (link-layer OKs for link scenarios, end-to-end pairs for e2e ones).
	Pairs uint64 `json:"pairs"`
	// Requests is how many CREATE requests the traffic source submitted.
	Requests uint64 `json:"requests"`
}

// add accumulates other into c.
func (c *Counters) add(other Counters) {
	c.Events += other.Events
	c.Attempts += other.Attempts
	c.Pairs += other.Pairs
	c.Requests += other.Requests
}

// sub returns c - other, field by field.
func (c Counters) sub(other Counters) Counters {
	return Counters{
		Events:   c.Events - other.Events,
		Attempts: c.Attempts - other.Attempts,
		Pairs:    c.Pairs - other.Pairs,
		Requests: c.Requests - other.Requests,
	}
}

// Instance is one live, seeded realisation of a scenario. Advance drives the
// simulation forward; Counters can be read at any point between advances.
type Instance interface {
	// Advance runs the simulation for d more simulated time.
	Advance(d sim.Duration)
	// Counters reports the cumulative work counters.
	Counters() Counters
}

// BuildConfig parameterises one scenario instantiation.
type BuildConfig struct {
	// Seed drives every random choice of the instance.
	Seed int64
	// Backend selects the pair-state representation the instance's quantum
	// stack runs on (dense or Bell-diagonal).
	Backend quantum.Backend
	// Shards selects the simulation engine: ≤1 serial, >1 a sharded engine
	// with that many worker shards. Deterministic counters are identical
	// either way.
	Shards int
	// Queue selects the event-queue discipline (heap or timing wheel).
	// Deterministic counters are identical under either.
	Queue sim.QueueKind
	// Trace, when non-nil, flight-records the instance's activity. It must
	// have at least max(1, Shards) shards. Tracing never perturbs the
	// simulation trajectory, so the deterministic counters are unchanged.
	Trace *obs.Tracer
	// Metrics, when non-nil, receives the instance's per-layer counters and
	// time-to-pair histograms.
	Metrics *obs.Registry
}

// Scenario is a registered benchmark workload.
type Scenario struct {
	// Name identifies the scenario; it is embedded in BENCH_<name>.json.
	Name string
	// Description is a one-line summary for the CLI listing.
	Description string
	// SimSeconds is the scenario's default trial duration; 0 means the
	// harness default of 1 simulated second. Large topologies set it lower
	// so a trial stays affordable.
	SimSeconds float64
	// Build constructs a fresh instance of the scenario.
	Build func(cfg BuildConfig) (Instance, error)
}

// netsimInstance adapts a netsim.Network (link-layer scenarios).
type netsimInstance struct {
	nw *netsim.Network
}

func (in *netsimInstance) Advance(d sim.Duration) { in.nw.Run(d) }

func (in *netsimInstance) Counters() Counters {
	c := Counters{
		Events:   in.nw.Sim.Executed(),
		Attempts: in.nw.Attempts(),
	}
	for _, l := range in.nw.Links {
		c.Requests += l.Submitted
		// OKs fire at both endpoints; count delivered pairs once.
		c.Pairs += l.OKs / 2
	}
	return c
}

// primerPairs keeps every link saturated for the whole measurement window:
// a standing request this large outlives any realistic benchmark duration
// (the Lab link delivers under ten pairs per simulated second), so the
// attempt hot path runs from the very first MHP cycle instead of waiting on
// Poisson arrival luck.
const primerPairs = 4096

// buildNetsim wires a link-layer scenario: the given topology on the Lab
// hardware, every link saturated by a standing measure-directly request with
// moderate-load Poisson request churn on top.
func buildNetsim(spec netsim.Spec) func(build BuildConfig) (Instance, error) {
	return func(build BuildConfig) (Instance, error) {
		cfg := netsim.DefaultConfig(spec, nv.ScenarioLab)
		cfg.Seed = build.Seed
		cfg.Backend = build.Backend
		cfg.Shards = build.Shards
		cfg.Queue = build.Queue
		cfg.Trace = build.Trace
		cfg.Metrics = build.Metrics
		nw, err := netsim.NewNetwork(cfg)
		if err != nil {
			return nil, err
		}
		nw.AttachTraffic(netsim.TrafficConfig{
			Load:        0.7,
			MaxPairs:    2,
			MinFidelity: 0.64,
		})
		for _, l := range nw.Links {
			_, code := nw.Submit(l, "A", egp.CreateRequest{
				NumPairs:    primerPairs,
				MinFidelity: 0.64,
				Priority:    egp.PriorityMD,
				PurposeID:   1,
				Consecutive: true,
			})
			if code != wire.ErrNone {
				return nil, fmt.Errorf("bench: priming link %s failed: %s", l.Name, code)
			}
		}
		return &netsimInstance{nw: nw}, nil
	}
}

// e2eInstance adapts a network.Service over a repeater chain.
type e2eInstance struct {
	nw  *netsim.Network
	svc *network.Service
}

func (in *e2eInstance) Advance(d sim.Duration) {
	in.nw.Run(d)
	in.svc.FinishAt(in.nw.Sim.Now())
}

func (in *e2eInstance) Counters() Counters {
	c := Counters{
		Events:   in.nw.Sim.Executed(),
		Attempts: in.nw.Attempts(),
	}
	_, agg := in.svc.Stats()
	c.Requests = agg.Requests
	c.Pairs = uint64(agg.Pairs)
	return c
}

// buildE2E wires the 4-hop end-to-end scenario: a 5-node repeater chain with
// entanglement swapping, driven by Poisson end-to-end requests.
func buildE2E(nodes int) func(build BuildConfig) (Instance, error) {
	return func(build BuildConfig) (Instance, error) {
		if build.Shards > 1 {
			return nil, fmt.Errorf("bench: the e2e scenario runs the network layer, which is serial-only (got -shards %d)", build.Shards)
		}
		cfg := netsim.DefaultConfig(netsim.Chain(nodes), nv.ScenarioLab)
		cfg.Seed = build.Seed
		cfg.Backend = build.Backend
		cfg.Queue = build.Queue
		cfg.HoldPairs = true
		cfg.Trace = build.Trace
		cfg.Metrics = build.Metrics
		nw, err := netsim.NewNetwork(cfg)
		if err != nil {
			return nil, err
		}
		svcCfg := network.DefaultConfig()
		svcCfg.Trace = build.Trace
		svcCfg.Metrics = build.Metrics
		svc, err := network.NewService(nw, svcCfg)
		if err != nil {
			return nil, err
		}
		tr := svc.AttachTraffic(network.TrafficConfig{
			Pairs:       [][2]int{{0, nodes - 1}},
			Load:        0.3,
			MaxPairs:    1,
			MinFidelity: 0.35,
		})
		// A standing end-to-end request keeps every hop generating and the
		// swap engine busy for the whole window (see primerPairs).
		if _, code := svc.Create(network.CreateRequest{
			SrcNode:     0,
			DstNode:     nodes - 1,
			NumPairs:    primerPairs,
			MinFidelity: 0.35,
		}); code != wire.ErrNone {
			return nil, fmt.Errorf("bench: priming e2e request failed: %s", code)
		}
		tr.Start()
		return &e2eInstance{nw: nw, svc: svc}, nil
	}
}

// Scenarios returns the scenario registry in canonical order.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:        "single-link",
			Description: "one heralded link (2-node chain) under MD Poisson traffic, Lab hardware",
			Build:       buildNetsim(netsim.Chain(2)),
		},
		{
			Name:        "chain-8",
			Description: "8-node chain: 7 concurrent links on one simulator",
			Build:       buildNetsim(netsim.Chain(8)),
		},
		{
			Name:        "grid-3x3",
			Description: "3×3 grid: 12 concurrent links on one simulator",
			Build:       buildNetsim(netsim.Grid(3, 3)),
		},
		{
			Name:        "chain-16",
			Description: "16-node chain: 15 concurrent links on one simulator",
			Build:       buildNetsim(netsim.Chain(16)),
		},
		{
			Name:        "e2e-4hop",
			Description: "4-hop repeater chain with entanglement swapping and e2e delivery",
			Build:       buildE2E(5),
		},
		{
			Name:        "chain-256",
			Description: "256-node chain: 255 concurrent links, the shard-scaling stress chain",
			SimSeconds:  0.05,
			Build:       buildNetsim(netsim.Chain(256)),
		},
		{
			Name:        "dragonfly-d3",
			Description: "D3(4,5) dragonfly: 5 groups of 4 routers, 40 links (30 local + 10 global)",
			SimSeconds:  0.1,
			Build:       buildNetsim(netsim.Dragonfly(4, 5)),
		},
	}
}

// ScenarioByName looks a scenario up in the registry.
func ScenarioByName(name string) (Scenario, bool) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// Options configures a harness run.
type Options struct {
	// SimSeconds is the simulated duration of every trial; 0 uses the
	// scenario's own default (1 when the scenario sets none).
	SimSeconds float64
	// Trials is how many independently seeded repetitions feed the
	// deterministic counters (default 3).
	Trials int
	// Seed is the base seed; trial i uses experiments.DeriveSeed(Seed, i).
	Seed int64
	// Parallelism is the worker count for the trial fan-out. It does not
	// affect any reported number: the counters are deterministic and the
	// allocation and wall-clock passes always run serially.
	Parallelism int
	// WallClock adds the host-dependent wall-clock section to the result.
	// It is off by default so that the emitted JSON is byte-identical
	// across runs and machines.
	WallClock bool
	// Backend selects the pair-state representation every scenario runs
	// on (dense by default; cmd/bench resolves $REPRO_BACKEND into it).
	Backend quantum.Backend
	// Shards selects the engine every trial runs on (≤1 serial). The
	// deterministic counters are independent of it; only wall-clock
	// throughput changes.
	Shards int
	// Queue selects the event-queue discipline every trial's engine runs
	// on (the timing wheel by default; cmd/bench resolves -queue /
	// $REPRO_QUEUE into it). The deterministic counters are independent of
	// it.
	Queue sim.QueueKind
	// Instrument, when set, is called once per counter-pass trial and may
	// return a tracer and/or metrics registry to attach to that trial
	// (typically non-nil only for trial 0). It applies to pass 1 only; the
	// allocation and wall-clock passes always run uninstrumented so the
	// host-cost numbers keep measuring the production hot path. Because the
	// observability layer never perturbs the trajectory, the deterministic
	// counters are identical with and without it.
	Instrument func(trial int) (*obs.Tracer, *obs.Registry)
}

// withDefaults fills in unset options (SimSeconds is resolved per scenario
// in Run, since scenarios may carry their own default duration).
func (o Options) withDefaults() Options {
	if o.Trials <= 0 {
		o.Trials = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// allocWarmupFraction is the fraction of a trial's simulated time used to
// warm the allocation pass before the measured window opens: it populates
// the sampler's distribution cache, grows the event queue and steadies the
// protocol pipelines so allocs/attempt reflects the steady state, not setup.
const allocWarmupFraction = 0.25

// Run executes one scenario under the given options and returns its result.
func Run(sc Scenario, opts Options) (Result, error) {
	opts = opts.withDefaults()
	if opts.SimSeconds <= 0 {
		opts.SimSeconds = sc.SimSeconds
	}
	if opts.SimSeconds <= 0 {
		opts.SimSeconds = 1
	}
	res := Result{
		Schema:      SchemaVersion,
		Scenario:    sc.Name,
		Description: sc.Description,
		Config: RunConfig{
			Seed:       opts.Seed,
			Trials:     opts.Trials,
			SimSeconds: opts.SimSeconds,
		},
	}
	// The backend is recorded only when it is not the dense default, so
	// pre-existing dense baselines stay byte-compatible; likewise the shard
	// count is recorded only for sharded runs.
	if opts.Backend != quantum.BackendDense {
		res.Config.Backend = opts.Backend.String()
	}
	if opts.Shards > 1 {
		res.Config.Shards = opts.Shards
	}
	if opts.Queue != sim.QueueWheel {
		res.Config.Queue = opts.Queue.String()
	}

	// Pass 1 — deterministic counters: fan the trials out over the worker
	// pool; every trial is an independent simulation, so the summed counters
	// are identical at any parallelism level.
	counters := make([]Counters, opts.Trials)
	errs := make([]error, opts.Trials)
	allocPass.RLock()
	experiments.RunIndexed(opts.Trials, opts.Parallelism, func(i int) {
		var tracer *obs.Tracer
		var registry *obs.Registry
		if opts.Instrument != nil {
			tracer, registry = opts.Instrument(i)
		}
		inst, err := sc.Build(BuildConfig{Seed: experiments.DeriveSeed(opts.Seed, uint64(i)), Backend: opts.Backend, Shards: opts.Shards, Queue: opts.Queue, Trace: tracer, Metrics: registry})
		if err != nil {
			errs[i] = err
			return
		}
		inst.Advance(sim.DurationSeconds(opts.SimSeconds))
		counters[i] = inst.Counters()
	})
	allocPass.RUnlock()
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}
	for _, c := range counters {
		res.Totals.add(c)
	}
	simTotal := opts.SimSeconds * float64(opts.Trials)
	res.Rates = Rates{
		EventsPerSimSec:   round3(float64(res.Totals.Events) / simTotal),
		AttemptsPerSimSec: round3(float64(res.Totals.Attempts) / simTotal),
		PairsPerSimSec:    round3(float64(res.Totals.Pairs) / simTotal),
	}

	// Pass 2 — allocations: dedicated serial trials with the GC paused and
	// no other simulation running, so the malloc counter deltas are
	// attributable to the hot path and reproducible. The warmup window
	// absorbs one-time setup cost.
	allocs, bytes, err := measureAllocs(sc, opts)
	if err != nil {
		return Result{}, err
	}
	res.AllocsPerAttempt = allocs
	res.BytesPerAttempt = bytes

	// Pass 3 — wall clock (optional): a dedicated serial trial so the
	// number means the same thing at any -parallel level.
	if opts.WallClock {
		wc, err := measureWallClock(sc, opts)
		if err != nil {
			return Result{}, err
		}
		res.WallClock = &wc
	}
	return res, nil
}

// allocPass isolates the allocation pass from every other simulation run in
// the process. That pass reads the process-global malloc counters and toggles
// the process-global GC percent, so a counter or wall-clock pass of a
// concurrent Run (parallel tests, or a library caller fanning scenarios out)
// would leak its allocations into the measurement, and two overlapping
// passes could restore each other's GC setting and leave the collector off.
// Simulation passes hold the read lock, the allocation pass the write lock.
var allocPass sync.RWMutex

// allocWindows is how many fresh instances measureAllocs measures; the
// smallest counts are reported. The simulation is deterministic, so every
// window allocates exactly the same; what the process-global counters add on
// top comes from outside it (the runtime starting an OS thread, say) and only
// ever adds, so the minimum over two windows is robust to a one-off.
const allocWindows = 2

// measureAllocs reports heap allocations and bytes per entanglement attempt
// over the steady-state window of a serial trial. It runs alone in the
// process (see allocPass).
func measureAllocs(sc Scenario, opts Options) (allocsPerAttempt, bytesPerAttempt float64, err error) {
	allocPass.Lock()
	defer allocPass.Unlock()
	var mallocs, bytes, attempts uint64
	for w := 0; w < allocWindows; w++ {
		m, b, a, err := measureAllocWindow(sc, opts)
		if err != nil {
			return 0, 0, err
		}
		if w == 0 || m < mallocs {
			mallocs = m
		}
		if w == 0 || b < bytes {
			bytes = b
		}
		attempts = a
	}
	allocsPerAttempt = roundSig3(float64(mallocs) / float64(attempts))
	bytesPerAttempt = roundSig3(float64(bytes) / float64(attempts))
	return allocsPerAttempt, bytesPerAttempt, nil
}

// measureAllocWindow builds one serial trial, warms it up and returns the
// heap objects and bytes allocated over the rest of its run, with the
// attempts made in that window.
func measureAllocWindow(sc Scenario, opts Options) (mallocs, bytes, attempts uint64, err error) {
	inst, err := sc.Build(BuildConfig{Seed: experiments.DeriveSeed(opts.Seed, 0), Backend: opts.Backend, Shards: opts.Shards, Queue: opts.Queue})
	if err != nil {
		return 0, 0, 0, err
	}
	warmup := opts.SimSeconds * allocWarmupFraction
	inst.Advance(sim.DurationSeconds(warmup))
	before := inst.Counters()

	// Settle the heap, then pause the GC for the measured window: background
	// collection would otherwise interleave its own bookkeeping with the
	// workload and make the malloc deltas depend on heap history (and thus
	// on whatever ran before this pass).
	runtime.GC()
	restore := debug.SetGCPercent(-1)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	inst.Advance(sim.DurationSeconds(opts.SimSeconds - warmup))
	runtime.ReadMemStats(&m1)
	debug.SetGCPercent(restore)

	window := inst.Counters().sub(before)
	if window.Attempts == 0 {
		return 0, 0, 0, fmt.Errorf("bench: scenario %s made no entanglement attempts in the measured window", sc.Name)
	}
	return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, window.Attempts, nil
}

// wallClockPasses is how many timed repetitions measureWallClock runs. The
// fastest pass is reported: scheduler jitter and noisy neighbours only ever
// add time, so the minimum is the most faithful (and most stable) sample —
// a single sub-second measurement would be far too noisy to gate at 20%.
const wallClockPasses = 3

// measureWallClock times serial end-to-end trials and reports the fastest.
func measureWallClock(sc Scenario, opts Options) (WallClock, error) {
	allocPass.RLock()
	defer allocPass.RUnlock()
	best := WallClock{}
	for pass := 0; pass < wallClockPasses; pass++ {
		inst, err := sc.Build(BuildConfig{Seed: experiments.DeriveSeed(opts.Seed, 0), Backend: opts.Backend, Shards: opts.Shards, Queue: opts.Queue})
		if err != nil {
			return WallClock{}, err
		}
		start := time.Now()
		inst.Advance(sim.DurationSeconds(opts.SimSeconds))
		elapsed := time.Since(start).Seconds()
		c := inst.Counters()
		if elapsed <= 0 {
			elapsed = 1e-9
		}
		if pass == 0 || elapsed < best.WallSeconds {
			best = WallClock{
				WallSeconds:      elapsed,
				EventsPerWallSec: round3(float64(c.Events) / elapsed),
				SimSecPerWallSec: round3(opts.SimSeconds / elapsed),
			}
		}
	}
	best.WallSeconds = round3(best.WallSeconds)
	return best, nil
}

// round3 rounds to three decimal places so serialised rates do not carry
// meaningless trailing precision.
func round3(v float64) float64 {
	return float64(int64(v*1000+0.5)) / 1000
}

// roundSig3 rounds to three significant figures. The per-attempt allocation
// figures span orders of magnitude: with the attempt path allocation-free
// the link scenarios sit far below one allocation per attempt, where a fixed
// three decimals would round real allocations away. Three figures are also
// coarse enough that the few allocations which differ between processes on
// the swap-heavy e2e-4hop scenario (a few per million) do not reach the
// reported value.
func roundSig3(v float64) float64 {
	r, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'g', 3, 64), 64) // parsing a formatted float cannot fail
	return r
}
