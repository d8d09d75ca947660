// Scheduling: the network-layer (NL) use case competing with application
// traffic. A mixed workload of NL, CK and MD requests is run twice — once
// under first-come-first-serve and once under the strict-priority + weighted
// fair queuing scheduler — showing the Table 1 effect: strict priority
// slashes the NL scaled latency at a modest cost to MD latency, with little
// impact on throughput.
package main

import (
	"fmt"

	"repro/internal/egp"
	"repro/internal/netsim"
	"repro/internal/nv"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	const seconds = 8.0
	for _, scheduler := range []string{"FCFS", "HigherWFQ"} {
		cfg := netsim.DefaultConfig(netsim.Chain(2), nv.ScenarioQL2020)
		cfg.Seed = 5
		cfg.Scheduler = scheduler
		net, err := netsim.NewNetwork(cfg)
		if err != nil {
			panic(err)
		}
		net.AttachCycleTraffic(workload.OriginRandom, workload.Table1Pattern(true))
		net.Run(sim.DurationSeconds(seconds))

		fmt.Printf("=== scheduler %s (QL2020, uniform NL/CK/MD load, %.0f s simulated) ===\n", scheduler, seconds)
		c := net.Links[0].Collector
		for _, p := range []int{egp.PriorityNL, egp.PriorityCK, egp.PriorityMD} {
			fmt.Printf("  %-3s throughput %.3f pairs/s   scaled latency %.3f s   pairs %d\n",
				egp.PriorityName(p), c.Throughput(p), c.ScaledLatency(p).Mean(), c.OKCount(p))
		}
		fmt.Printf("  total throughput %.3f pairs/s\n\n", c.TotalThroughput())
	}
	fmt.Println("Expected shape (Table 1): WFQ reduces NL scaled latency by roughly 3x versus FCFS,")
	fmt.Println("CK improves somewhat, MD latency grows, and total throughput changes only slightly.")
}
