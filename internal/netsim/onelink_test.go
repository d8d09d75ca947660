package netsim

import (
	"math"
	"testing"

	"repro/internal/egp"
	"repro/internal/nv"
	"repro/internal/quantum"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/workload"
)

// The paper's evaluation runs on one heralded link: two NV nodes and the
// heralding station between them. These tests drive that link as a one-link
// network, the way internal/experiments, cmd/linksim and the examples do.

// oneLink is a one-link network that records every OK and error event both
// endpoints pass up.
type oneLink struct {
	*Network
	link *Link
	oks  []egp.OKEvent
	errs []egp.ErrorEvent
}

func newOneLink(t testing.TB, scenario nv.ScenarioID, seed int64, configure func(*Config)) *oneLink {
	t.Helper()
	cfg := DefaultConfig(Chain(2), scenario)
	cfg.Seed = seed
	if configure != nil {
		configure(&cfg)
	}
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := &oneLink{Network: nw, link: nw.Links[0]}
	nw.OnLinkOK = func(_ *Link, ev egp.OKEvent) { o.oks = append(o.oks, ev) }
	nw.OnLinkError = func(_ *Link, ev egp.ErrorEvent) { o.errs = append(o.errs, ev) }
	return o
}

// submitAt schedules a request submission from the given role at a given
// simulated time.
func (o *oneLink) submitAt(at sim.Duration, role string, req egp.CreateRequest) {
	sim.Schedule(o.link.Eng, at, func() { o.Submit(o.link, role, req) })
}

func TestLabMeasureDirectlyDeliversPairs(t *testing.T) {
	o := newOneLink(t, nv.ScenarioLab, 7, nil)
	o.submitAt(0, roleA, egp.CreateRequest{
		NumPairs:    5,
		Keep:        false,
		MinFidelity: 0.6,
		Priority:    egp.PriorityMD,
		PurposeID:   1,
	})
	o.Run(3 * sim.Second)

	if len(o.oks) == 0 {
		t.Fatal("no OKs delivered for an MD request in 3 s of Lab time")
	}
	c := o.link.Collector
	// The origin node should have recorded 5 delivered pairs and completed
	// the request.
	if got := c.OKCount(egp.PriorityMD); got != 5 {
		t.Fatalf("expected 5 MD pairs at the origin, got %d", got)
	}
	if c.RequestLatency(egp.PriorityMD).Count() != 1 {
		t.Fatal("request should have completed")
	}
	if c.OutstandingRequests() != 0 {
		t.Fatal("no requests should remain outstanding")
	}
	// Both nodes deliver OKs (the peer also passes entanglement upwards).
	var fromA, fromB int
	for _, ok := range o.oks {
		if ok.Node == roleA {
			fromA++
		} else {
			fromB++
		}
		if ok.Keep {
			t.Fatal("MD request should produce measure OKs")
		}
		if ok.MeasureOutcome != 0 && ok.MeasureOutcome != 1 {
			t.Fatalf("invalid measurement outcome %d", ok.MeasureOutcome)
		}
	}
	if fromA == 0 || fromB == 0 {
		t.Fatalf("both nodes should issue OKs, got A=%d B=%d", fromA, fromB)
	}
}

func TestLabKeepDeliversEntangledPairs(t *testing.T) {
	o := newOneLink(t, nv.ScenarioLab, 11, nil)
	o.submitAt(0, roleA, egp.CreateRequest{
		NumPairs:    3,
		Keep:        true,
		MinFidelity: 0.6,
		Priority:    egp.PriorityCK,
		PurposeID:   2,
	})
	o.Run(4 * sim.Second)

	c := o.link.Collector
	if got := c.OKCount(egp.PriorityCK); got != 3 {
		t.Fatalf("expected 3 CK pairs, got %d", got)
	}
	fid := c.Fidelity(egp.PriorityCK)
	if fid.Count() != 3 {
		t.Fatalf("expected 3 fidelity samples, got %d", fid.Count())
	}
	if fid.Mean() < 0.6 {
		t.Fatalf("mean delivered fidelity %v below the requested minimum", fid.Mean())
	}
	if fid.Mean() > 0.95 {
		t.Fatalf("mean delivered fidelity %v implausibly high for this hardware", fid.Mean())
	}
	// K pairs report where the qubit was stored.
	sawMemory := false
	for _, ok := range o.oks {
		if ok.Keep && ok.LogicalQubit != nv.CommQubitID {
			sawMemory = true
		}
	}
	if !sawMemory {
		t.Fatal("expected at least one pair moved to a memory qubit")
	}
}

func TestRequestFromSlaveNode(t *testing.T) {
	o := newOneLink(t, nv.ScenarioLab, 13, nil)
	o.submitAt(0, roleB, egp.CreateRequest{
		NumPairs:    2,
		Keep:        false,
		MinFidelity: 0.6,
		Priority:    egp.PriorityMD,
	})
	o.Run(3 * sim.Second)
	c := o.link.Collector
	if got := c.OKCount(egp.PriorityMD); got != 2 {
		t.Fatalf("expected 2 pairs for a slave-originated request, got %d", got)
	}
	// The origin-side metrics must be attributed to B's node.
	if c.PairsByOrigin()[o.link.NodeName(roleB)] != 2 {
		t.Fatalf("pairs should be attributed to origin B: %v", c.PairsByOrigin())
	}
}

func TestUnsupportedFidelityRejected(t *testing.T) {
	o := newOneLink(t, nv.ScenarioLab, 1, nil)
	o.Start()
	_, code := o.Submit(o.link, roleA, egp.CreateRequest{
		NumPairs:    1,
		Keep:        true,
		MinFidelity: 0.99, // unreachable on this hardware
		Priority:    egp.PriorityCK,
	})
	if code != wire.ErrUnsupported {
		t.Fatalf("expected UNSUPP, got %v", code)
	}
	if len(o.errs) != 1 || o.errs[0].Code != wire.ErrUnsupported {
		t.Fatalf("expected an UNSUPP error event, got %+v", o.errs)
	}
}

func TestUnsupportedTimeRejected(t *testing.T) {
	o := newOneLink(t, nv.ScenarioLab, 1, nil)
	o.Start()
	_, code := o.Submit(o.link, roleA, egp.CreateRequest{
		NumPairs:    100,
		Keep:        true,
		MinFidelity: 0.6,
		MaxTime:     1 * sim.Millisecond, // impossible deadline
		Priority:    egp.PriorityCK,
	})
	if code != wire.ErrUnsupported {
		t.Fatalf("expected UNSUPP for impossible deadline, got %v", code)
	}
}

func TestAtomicMemoryExceeded(t *testing.T) {
	o := newOneLink(t, nv.ScenarioLab, 1, nil)
	o.Start()
	_, code := o.Submit(o.link, roleA, egp.CreateRequest{
		NumPairs:    10, // far more than 1 comm + 1 memory qubit
		Keep:        true,
		Atomic:      true,
		MinFidelity: 0.6,
		Priority:    egp.PriorityCK,
	})
	if code != wire.ErrMemExceeded {
		t.Fatalf("expected MEMEXCEEDED, got %v", code)
	}
}

func TestRequestTimeout(t *testing.T) {
	o := newOneLink(t, nv.ScenarioLab, 17, nil)
	// Many pairs with a deadline close to the FEU estimate for far fewer:
	// the request must end either way, completed or timed out.
	o.submitAt(0, roleA, egp.CreateRequest{
		NumPairs:    30,
		Keep:        false,
		MinFidelity: 0.6,
		MaxTime:     4 * sim.Second,
		Priority:    egp.PriorityMD,
	})
	o.Run(6 * sim.Second)
	c := o.link.Collector
	timedOut := c.ErrorCount("TIMEOUT")
	completed := c.RequestLatency(egp.PriorityMD).Count()
	if timedOut+completed == 0 {
		t.Fatal("request should either complete or time out")
	}
}

func TestQBERAccountingForMD(t *testing.T) {
	o := newOneLink(t, nv.ScenarioLab, 23, nil)
	o.submitAt(0, roleA, egp.CreateRequest{
		NumPairs:    80,
		Keep:        false,
		MinFidelity: 0.6,
		Priority:    egp.PriorityMD,
	})
	o.Run(30 * sim.Second)
	q := o.link.Collector.QBER(egp.PriorityMD)
	if q == nil || q.Samples() < 40 {
		t.Fatalf("MD runs should accumulate QBER samples, got %v", q)
	}
	// The QBER-derived estimate must land in a physically sensible band:
	// well above random correlations and consistent with the heralded
	// fidelity (~0.65) minus readout noise, with sampling slack.
	est := q.FidelityEstimate()
	if est < 0.35 || est > 0.9 {
		t.Fatalf("QBER-derived fidelity estimate out of range: %v", est)
	}
	// Both FEUs learn from the same matched outcomes.
	if a, b := o.link.EGPA.FEU().TestRoundSamples(), o.link.EGPB.FEU().TestRoundSamples(); a == 0 || a != b {
		t.Fatalf("FEU test-round samples A=%d B=%d, want equal and non-zero", a, b)
	}
}

// mdOK builds one endpoint's measure-directly OK for the matcher tests.
func mdOK(role string, id uint16, basis quantum.BasisLabel, outcome int) egp.OKEvent {
	return egp.OKEvent{
		Node: role, EntanglementID: id, Priority: egp.PriorityMD,
		MeasureBasis: basis, MeasureOutcome: outcome,
	}
}

// TestQBERMatcherReplacesStaleSameNodeOutcome feeds the matcher a stale
// one-sided outcome (its peer's REPLY was lost), then a fresh pair that
// reuses the same wrapped sequence number: the fresh pair must match.
func TestQBERMatcherReplacesStaleSameNodeOutcome(t *testing.T) {
	o := newOneLink(t, nv.ScenarioLab, 1, nil)
	o.handleOK(o.link, mdOK(roleA, 7, quantum.BasisZ, 1)) // stale, never matched
	o.handleOK(o.link, mdOK(roleA, 7, quantum.BasisZ, 0))
	o.handleOK(o.link, mdOK(roleB, 7, quantum.BasisZ, 1))
	q := o.link.Collector.QBER(egp.PriorityMD)
	if q == nil || q.Samples() != 1 {
		t.Fatalf("want exactly one QBER sample from the fresh pair, got %v", q)
	}
	if len(o.link.mdPending) != 0 {
		t.Fatalf("matched pair left %d pending outcome(s)", len(o.link.mdPending))
	}
}

// TestQBERMatcherAllocFree pins the matcher's steady state: pairing the two
// endpoints' outcomes allocates nothing per OK.
func TestQBERMatcherAllocFree(t *testing.T) {
	o := newOneLink(t, nv.ScenarioLab, 1, nil)
	id := uint16(0)
	feed := func() {
		id++
		o.link.matchMeasurement(mdOK(roleA, id, quantum.BasisX, 0))
		o.link.matchMeasurement(mdOK(roleB, id, quantum.BasisX, 0))
	}
	feed() // first sample builds the collector's QBER counter
	if allocs := testing.AllocsPerRun(1000, feed); allocs != 0 {
		t.Fatalf("matcher allocates %.2f times per pair", allocs)
	}
}

func TestFairnessBetweenOrigins(t *testing.T) {
	o := newOneLink(t, nv.ScenarioLab, 29, nil)
	for i := 0; i < 4; i++ {
		role := roleA
		if i%2 == 1 {
			role = roleB
		}
		o.submitAt(sim.Duration(i)*sim.Millisecond, role, egp.CreateRequest{
			NumPairs:    2,
			Keep:        false,
			MinFidelity: 0.6,
			Priority:    egp.PriorityMD,
		})
	}
	o.Run(6 * sim.Second)
	c := o.link.Collector
	nameA, nameB := o.link.NodeName(roleA), o.link.NodeName(roleB)
	byOrigin := c.PairsByOrigin()
	if byOrigin[nameA] == 0 || byOrigin[nameB] == 0 {
		t.Fatalf("both origins should be served: %v", byOrigin)
	}
	rep := c.Fairness(nameA, nameB)
	if rep.OKCountRelDiff > 0.5 {
		t.Fatalf("origin fairness badly violated: %+v", rep)
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	run := func(seed int64) (int, float64) {
		o := newOneLink(t, nv.ScenarioLab, seed, nil)
		o.submitAt(0, roleA, egp.CreateRequest{NumPairs: 3, MinFidelity: 0.6, Priority: egp.PriorityMD})
		o.Run(2 * sim.Second)
		return len(o.oks), o.link.Collector.Fidelity(egp.PriorityMD).Mean()
	}
	oks1, f1 := run(99)
	oks2, f2 := run(99)
	if oks1 == 0 {
		t.Fatal("no OKs delivered for an MD request in 2 s of Lab time")
	}
	if oks1 != oks2 || math.Abs(f1-f2) > 1e-12 {
		t.Fatalf("same seed should reproduce identical runs: %d/%v vs %d/%v", oks1, f1, oks2, f2)
	}
}

func TestQL2020KeepThroughputLowerThanLab(t *testing.T) {
	// Section 6.2: QL2020 K-type throughput is roughly an order of magnitude
	// below Lab because every attempt must wait for the midpoint reply.
	run := func(scenario nv.ScenarioID) float64 {
		o := newOneLink(t, scenario, 31, nil)
		o.submitAt(0, roleA, egp.CreateRequest{
			NumPairs:    200,
			Keep:        true,
			MinFidelity: 0.6,
			Priority:    egp.PriorityCK,
		})
		o.Run(5 * sim.Second)
		return o.link.Collector.Throughput(egp.PriorityCK)
	}
	lab := run(nv.ScenarioLab)
	ql := run(nv.ScenarioQL2020)
	if lab <= 0 {
		t.Fatal("Lab K throughput should be positive")
	}
	if ql <= 0 {
		t.Fatal("QL2020 K throughput should be positive")
	}
	if lab < 3*ql {
		t.Fatalf("Lab K throughput (%v) should be well above QL2020 (%v)", lab, ql)
	}
}

func TestRobustnessToClassicalLoss(t *testing.T) {
	// Section 6.1: inflated classical losses must not break the protocol;
	// pairs keep being delivered.
	o := newOneLink(t, nv.ScenarioLab, 37, func(cfg *Config) {
		cfg.ClassicalLossProb = 1e-3 // even harsher than the paper's 1e-4
	})
	o.submitAt(0, roleA, egp.CreateRequest{
		NumPairs:    10,
		Keep:        false,
		MinFidelity: 0.6,
		Priority:    egp.PriorityMD,
	})
	o.Run(5 * sim.Second)
	if o.link.Collector.OKCount(egp.PriorityMD) == 0 {
		t.Fatal("protocol should still deliver pairs under inflated classical loss")
	}
}

func TestStopHaltsGeneration(t *testing.T) {
	o := newOneLink(t, nv.ScenarioLab, 1, nil)
	o.Start()
	o.Stop()
	o.Submit(o.link, roleA, egp.CreateRequest{NumPairs: 1, MinFidelity: 0.6, Priority: egp.PriorityMD})
	_ = o.Sim.RunFor(200 * sim.Millisecond)
	if len(o.oks) != 0 {
		t.Fatal("no pairs should be generated after Stop")
	}
}

func TestDescribe(t *testing.T) {
	o := newOneLink(t, nv.ScenarioQL2020, 1, nil)
	if o.Describe() == "" {
		t.Fatal("Describe should not be empty")
	}
}

// --- The per-cycle generator (the paper's Section 6 arrival model) ------

func TestCycleTrafficIssuesRequests(t *testing.T) {
	o := newOneLink(t, nv.ScenarioLab, 3, nil)
	gen := o.AttachCycleTraffic(workload.OriginRandom, workload.SingleKind(egp.PriorityMD, workload.LoadUltra, 3))
	o.Run(2 * sim.Second)
	o.Stop()

	submitted := gen.Submitted()
	if submitted == 0 {
		t.Fatal("the generator should issue requests at Ultra load within 2 s")
	}
	c := o.link.Collector
	if c.OKCount(egp.PriorityMD) == 0 {
		t.Fatal("generated requests should produce pairs")
	}
	// With f = 1.5 the queue grows, so submissions should at least match
	// completed requests.
	if completed := c.RequestLatency(egp.PriorityMD).Count(); submitted < uint64(completed) {
		t.Fatalf("bookkeeping inconsistent: %d submitted < %d completed", submitted, completed)
	}
}

func TestCycleTrafficOriginPolicy(t *testing.T) {
	o := newOneLink(t, nv.ScenarioLab, 5, nil)
	o.AttachCycleTraffic(workload.OriginB, workload.SingleKind(egp.PriorityMD, workload.LoadUltra, 1))
	o.Run(1 * sim.Second)
	byOrigin := o.link.Collector.PairsByOrigin()
	if byOrigin[o.link.NodeName(roleA)] != 0 {
		t.Fatalf("origin policy B should never submit from A: %v", byOrigin)
	}
	if byOrigin[o.link.NodeName(roleB)] == 0 {
		t.Fatal("origin policy B should deliver pairs attributed to B")
	}
}

func TestCycleTrafficStopHaltsArrivals(t *testing.T) {
	o := newOneLink(t, nv.ScenarioLab, 7, nil)
	gen := o.AttachCycleTraffic(workload.OriginA, workload.SingleKind(egp.PriorityMD, workload.LoadUltra, 1))
	o.Run(500 * sim.Millisecond)
	gen.Stop()
	before := gen.Submitted()
	o.Run(500 * sim.Millisecond)
	if gen.Submitted() != before {
		t.Fatal("no requests should arrive after Stop")
	}
}

// TestCycleTrafficStartIdempotent starts the generator a second time while
// it runs: the arrivals must equal a run with a single Start, not double.
func TestCycleTrafficStartIdempotent(t *testing.T) {
	run := func(starts int) uint64 {
		o := newOneLink(t, nv.ScenarioLab, 9, nil)
		gen := o.AttachCycleTraffic(workload.OriginRandom, workload.SingleKind(egp.PriorityMD, workload.LoadHigh, 3))
		o.Start()
		for i := 1; i < starts; i++ {
			gen.Start()
		}
		o.Run(1 * sim.Second)
		return gen.Submitted()
	}
	once, twice := run(1), run(2)
	if once == 0 {
		t.Fatal("no requests in 1 s at High load")
	}
	if twice != once {
		t.Fatalf("a second Start changed the arrivals: %d vs %d", twice, once)
	}
}

// TestCycleTrafficShardParity runs the per-cycle generator across a chain on
// the serial and the sharded engine: every link ticks and draws on its own
// shard, so the stats must be byte-identical.
func TestCycleTrafficShardParity(t *testing.T) {
	run := func(shards int) string {
		cfg := DefaultConfig(Chain(4), nv.ScenarioLab)
		cfg.Seed = 11
		cfg.Shards = shards
		nw, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nw.AttachCycleTraffic(workload.OriginRandom, workload.SingleKind(egp.PriorityMD, workload.LoadHigh, 3))
		nw.Run(sim.DurationSeconds(0.5))
		return render(nw.Stats())
	}
	serial := run(1)
	if sharded := run(2); sharded != serial {
		t.Fatalf("stats diverge between 1 and 2 shards\n--- serial ---\n%s--- sharded ---\n%s", serial, sharded)
	}
}
