// Command linksim runs a single link layer scenario and prints its
// performance metrics: a quick way to explore one configuration of the
// system (scenario, scheduler, load, request kind, fidelity target,
// classical loss) without the full benchmark suite. The link is a one-link
// netsim network driven by the paper's per-cycle arrival model.
//
// Example:
//
//	linksim -scenario QL2020 -kind MD -load 0.99 -kmax 3 -fmin 0.64 -seconds 10
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/egp"
	"repro/internal/netsim"
	"repro/internal/nv"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	var (
		scenario  = flag.String("scenario", "Lab", "hardware scenario: Lab or QL2020")
		kind      = flag.String("kind", "MD", "request kind: NL, CK or MD")
		scheduler = flag.String("scheduler", "FCFS", "scheduler: FCFS, LowerWFQ or HigherWFQ")
		load      = flag.Float64("load", 0.99, "offered load fraction f_P")
		kmax      = flag.Int("kmax", 3, "maximum pairs per request")
		fmin      = flag.Float64("fmin", 0.64, "requested minimum fidelity")
		seconds   = flag.Float64("seconds", 5, "simulated seconds")
		seed      = flag.Int64("seed", 1, "random seed")
		loss      = flag.Float64("loss", 0, "classical frame loss probability")
		origin    = flag.String("origin", "random", "request origin: A, B or random")
	)
	flag.Parse()

	priority, ok := map[string]int{"NL": egp.PriorityNL, "CK": egp.PriorityCK, "MD": egp.PriorityMD}[*kind]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown kind %q\n", *kind)
		os.Exit(2)
	}
	var sid nv.ScenarioID
	switch *scenario {
	case "Lab", "lab":
		sid = nv.ScenarioLab
	case "QL2020", "ql2020":
		sid = nv.ScenarioQL2020
	default:
		fmt.Fprintf(os.Stderr, "unknown scenario %q\n", *scenario)
		os.Exit(2)
	}
	var org workload.Origin
	switch *origin {
	case "A":
		org = workload.OriginA
	case "B":
		org = workload.OriginB
	default:
		org = workload.OriginRandom
	}

	cfg := netsim.DefaultConfig(netsim.Chain(2), sid)
	cfg.Seed = *seed
	cfg.Scheduler = *scheduler
	cfg.ClassicalLossProb = *loss

	net, err := netsim.NewNetwork(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	gen := net.AttachCycleTraffic(org, []workload.Class{{
		Priority:    priority,
		Fraction:    *load,
		MaxPairs:    *kmax,
		MinFidelity: *fmin,
	}})
	net.Run(sim.DurationSeconds(*seconds))

	link := net.Links[0]
	c := link.Collector
	fmt.Printf("scenario:          %s\n", net.Describe())
	fmt.Printf("kind / load:       %s / %.2f (kmax=%d, Fmin=%.2f)\n", *kind, *load, *kmax, *fmin)
	fmt.Printf("simulated time:    %.2f s\n", c.DurationSeconds())
	fmt.Printf("requests issued:   %d\n", gen.Submitted())
	fmt.Printf("pairs delivered:   %d\n", c.OKCount(priority))
	fmt.Printf("throughput:        %.3f pairs/s\n", c.Throughput(priority))
	fmt.Printf("avg fidelity:      %.3f\n", c.Fidelity(priority).Mean())
	if q := c.QBER(priority); q != nil && q.Samples() > 0 {
		z, x, y := q.Rates()
		fmt.Printf("QBER (Z/X/Y):      %.3f / %.3f / %.3f  (F_est %.3f, %d samples)\n", z, x, y, q.FidelityEstimate(), q.Samples())
	}
	fmt.Printf("request latency:   %.3f s (per request), %.3f s (scaled)\n",
		c.RequestLatency(priority).Mean(), c.ScaledLatency(priority).Mean())
	fmt.Printf("avg queue length:  %.2f\n", c.QueueLength().Mean())
	fmt.Printf("timeouts/unsupp:   %d / %d\n", c.ErrorCount("TIMEOUT"), c.ErrorCount("UNSUPP"))
	fmt.Printf("expire events:     %d\n", c.ExpireCount())
	rep := c.Fairness(link.NodeName("A"), link.NodeName("B"))
	fmt.Printf("fairness (A vs B): fidelity %.3f, throughput %.3f, latency %.3f\n",
		rep.FidelityRelDiff, rep.ThroughputRelDiff, rep.LatencyRelDiff)
	matched, successes, timeMis, queueMis, noOther := link.Mid.Stats()
	fmt.Printf("midpoint:          matched=%d success=%d timeMismatch=%d queueMismatch=%d noMsgOther=%d\n",
		matched, successes, timeMis, queueMis, noOther)
}
