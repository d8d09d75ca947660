// Command bench runs the structured benchmark scenarios of internal/bench
// and reports the repo's performance trajectory: deterministic work counters
// (events, attempts, delivered pairs), heap cost per entanglement attempt,
// and — with -wallclock — host throughput.
//
// Besides the registered scenarios (-scenarios, -list), -scenario <file>.json
// benches a declarative scenario spec (see internal/scenario): the spec's
// topology, hardware, protocol and traffic define the workload while the
// bench flags keep control of seed, backend, shards and queue.
//
// The human-readable table always prints to stdout. With -json, every
// scenario additionally writes BENCH_<scenario>.json into -out; those files
// are byte-identical across runs and -parallel levels unless -wallclock adds
// the host-dependent section. With -baseline, the fresh results are gated
// against the committed baseline directory and the process exits non-zero on
// regression.
//
// Examples:
//
//	bench                                    # all scenarios, table only
//	bench -scenarios single-link,e2e-4hop
//	bench -scenario scenarios/chain16-bench.json
//	bench -json -out bench/baseline -wallclock   # refresh the committed baseline
//	bench -json -baseline bench/baseline -gate 0.20   # the CI alloc gate
//
// Gating wall-clock throughput (-wallclock together with -baseline) is only
// meaningful when both sides were measured on the same machine; CI does it
// by re-measuring the PR's merge-base on the same runner.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() {
	var (
		scenarios = flag.String("scenarios", "all", "comma-separated registered scenario names, or 'all'")
		specFile  = flag.String("scenario", "", "bench a declarative scenario spec file instead of the registered scenarios")
		list      = flag.Bool("list", false, "list registered scenarios and exit")
		seconds   = flag.Float64("seconds", 0, "simulated seconds per trial (0 = each scenario's own default)")
		trials    = flag.Int("trials", 3, "independently seeded repetitions feeding the deterministic counters")
		seed      = flag.Int64("seed", 1, "base random seed (trial seeds are derived from it)")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for the trial fan-out (never changes any reported number)")
		jsonOut   = flag.Bool("json", false, "write BENCH_<scenario>.json files into -out")
		outDir    = flag.String("out", ".", "directory for -json output")
		wallclock = flag.Bool("wallclock", false, "add the host-dependent wall-clock section (makes the JSON machine-specific)")
		baseline  = flag.String("baseline", "", "baseline directory to gate against (fails on regression)")
		gate      = flag.Float64("gate", 0.20, "allowed relative regression vs the baseline (0.20 = 20%)")

		shared = cli.Register(flag.CommandLine, cli.Config{
			BackendHelp: "pair-state backend: dense (exact, default) or belldiag (O(1) Bell-diagonal fast path); $REPRO_BACKEND sets the default",
			ShardsHelp:  "worker shards of the simulation engine (<=1 serial; counters are identical at any shard count)",
			TraceHelp:   "write a Chrome trace-event JSON flight recording of trial 0 to this file (single scenario only; view in ui.perfetto.dev)",
			MetricsHelp: "write a JSON metrics snapshot of trial 0 to this file (single scenario only)",
		})
	)
	flag.Parse()

	resolved, err := shared.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	be, qk := resolved.Backend, resolved.Queue

	if *list {
		for _, sc := range bench.Scenarios() {
			fmt.Printf("%-12s %s\n", sc.Name, sc.Description)
		}
		return
	}

	var selected []bench.Scenario
	switch {
	case *specFile != "":
		if *scenarios != "all" {
			fmt.Fprintln(os.Stderr, "-scenario and -scenarios are mutually exclusive")
			os.Exit(2)
		}
		sp, err := scenario.Load(*specFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		compiled, err := sp.Compile()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		sc, err := bench.FromSpec(compiled)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		selected = append(selected, sc)
	case *scenarios == "all":
		selected = bench.Scenarios()
	default:
		for _, name := range strings.Split(*scenarios, ",") {
			name = strings.TrimSpace(name)
			sc, ok := bench.ScenarioByName(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown scenario %q (use -list)\n", name)
				os.Exit(2)
			}
			selected = append(selected, sc)
		}
	}

	opts := bench.Options{
		SimSeconds:  *seconds,
		Trials:      *trials,
		Seed:        *seed,
		Parallelism: *parallel,
		WallClock:   *wallclock,
		Backend:     be,
		Shards:      resolved.Shards,
		Queue:       qk,
	}

	// Observability attaches to trial 0 of a single selected scenario, so the
	// emitted files unambiguously describe one workload. The counter pass is
	// unperturbed by it; the alloc and wall-clock passes never see it.
	var tracer *obs.Tracer
	var registry *obs.Registry
	if *shared.TraceOut != "" || *shared.MetricsOut != "" {
		if len(selected) != 1 {
			fmt.Fprintln(os.Stderr, "-trace/-metrics require exactly one scenario (use -scenarios <name>)")
			os.Exit(2)
		}
		tracer, registry = shared.Observability()
		opts.Instrument = func(trial int) (*obs.Tracer, *obs.Registry) {
			if trial == 0 {
				return tracer, registry
			}
			return nil, nil
		}
	}
	stopCPU, err := shared.StartCPU()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	engine := "serial engine"
	if resolved.Shards > 1 {
		engine = fmt.Sprintf("%d-shard engine", resolved.Shards)
	}
	duration := "per-scenario duration"
	if *seconds > 0 {
		duration = fmt.Sprintf("%.2f simulated second(s)", *seconds)
	}
	columns := []string{"scenario", "events", "attempts", "pairs", "events/sim-s", "pairs/sim-s", "allocs/attempt", "bytes/attempt"}
	if *wallclock {
		columns = append(columns, "events/wall-s", "sim-s/wall-s")
	}
	table := experiments.Table{
		ID:      "bench",
		Caption: fmt.Sprintf("%d trial(s) x %s, seed %d, %s backend, %s", opts.Trials, duration, opts.Seed, be, engine),
		Columns: columns,
	}

	var regressions []string
	var trialSimSeconds float64
	for _, sc := range selected {
		res, err := bench.Run(sc, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		trialSimSeconds = res.Config.SimSeconds
		row := []string{
			res.Scenario,
			fmt.Sprintf("%d", res.Totals.Events),
			fmt.Sprintf("%d", res.Totals.Attempts),
			fmt.Sprintf("%d", res.Totals.Pairs),
			fmt.Sprintf("%.0f", res.Rates.EventsPerSimSec),
			fmt.Sprintf("%.1f", res.Rates.PairsPerSimSec),
			fmt.Sprintf("%.4f", res.AllocsPerAttempt),
			fmt.Sprintf("%.2f", res.BytesPerAttempt),
		}
		if *wallclock && res.WallClock != nil {
			row = append(row,
				fmt.Sprintf("%.0f", res.WallClock.EventsPerWallSec),
				fmt.Sprintf("%.2f", res.WallClock.SimSecPerWallSec))
		}
		table.Rows = append(table.Rows, row)

		if *jsonOut {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			path, err := res.WriteFile(*outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
		if *baseline != "" {
			base, err := bench.ReadFile(*baseline + "/" + bench.FileName(res.Scenario))
			switch {
			case errors.Is(err, os.ErrNotExist):
				// A scenario with no baseline yet (e.g. added by this very
				// change) is reported, not failed; the refresh commits it.
				fmt.Fprintf(os.Stderr, "note: no baseline for %s in %s; skipping comparison\n", res.Scenario, *baseline)
			case err != nil:
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			default:
				regs, err := bench.Compare(base, res, *gate)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				regressions = append(regressions, regs...)
			}
		}
	}

	stopCPU()
	if tracer != nil || registry != nil {
		end := sim.Time(sim.DurationSeconds(trialSimSeconds))
		if err := shared.WriteArtifacts(tracer, registry, end); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else if err := shared.WriteArtifacts(nil, nil, 0); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Println(table.String())

	if *baseline != "" {
		if len(regressions) > 0 {
			for _, r := range regressions {
				fmt.Fprintln(os.Stderr, "REGRESSION: "+r)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "baseline gate passed (tolerance %.0f%%)\n", *gate*100)
	}
}
