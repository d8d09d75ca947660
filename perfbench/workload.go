package main

import (
	"embed"
	"fmt"
	"math"
	"runtime"
	"slices"

	"repro/internal/egp"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// specFS holds the workloads' scenario specs. Each spec's run.seconds is the
// simulated horizon of one repetition.
//
//go:embed specs/*.json
var specFS embed.FS

// workload is one benchmark workload: a scenario spec plus how the
// benchmark drives it. BENCHMARK.json and README.md say why each is in the
// benchmark.
type workload struct {
	name string
	spec string
	// e2e runs the network service over every node pair of the topology.
	e2e bool
	// sharded runs the workload on the sharded engine (see shardCount).
	sharded bool
}

var workloads = []workload{
	{
		name: "link-overload",
		spec: "link-overload.json",
	},
	{
		name: "e2e-grid",
		spec: "e2e-grid.json",
		e2e:  true,
	},
	{
		name:    "dragonfly-sharded",
		spec:    "dragonfly-sharded.json",
		sharded: true,
	},
}

func workloadByName(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// shardCount is the dragonfly workload's shard count: the CPU count, at
// least 2 so the sharded engine runs, at most 4 so a large host does not
// split 20 routers into slivers.
func shardCount() int {
	return min(max(runtime.NumCPU(), 2), 4)
}

// buildOpts parameterises one instance.
type buildOpts struct {
	seed int64
	// shards overrides the engine's shard count of a sharded workload
	// (1 = serial); 0 keeps shardCount().
	shards int
	// horizon overrides the spec's simulated horizon when positive.
	horizon sim.Duration
	// obs, when set, traces the instance.
	obs *observers
}

// instance is one built, ready-to-run realisation of a workload.
type instance struct {
	w       *workload
	c       *scenario.Compiled
	nw      *netsim.Network
	horizon sim.Duration
	obs     *observers // nil when untraced

	mt  *netsim.MultiTraffic // link workloads
	svc *network.Service     // e2e workload
	e2e *network.Traffic

	links []*linkTally // indexed by link ID
	reqs  *e2eTally
}

// build sets the workload up: spec load and compile, network construction,
// link calibration, network service, traffic and fault scheduling. Each step
// is a span under parent.
func build(w *workload, o buildOpts, rec *recorder, parent int) (*instance, error) {
	sp := rec.begin("scenario.compile", parent)
	c, err := compileSpec(w, o)
	if err != nil {
		return nil, err
	}
	rec.end(sp)

	in := &instance{w: w, c: c, horizon: sim.DurationSeconds(c.Seconds), obs: o.obs}
	if o.horizon > 0 {
		in.horizon = o.horizon
	}
	var tracer *obs.Tracer
	var registry *obs.Registry
	if o.obs != nil {
		tracer, registry = o.obs.tracer, o.obs.registry
	}
	cfg := c.Config
	cfg.Trace = tracer
	cfg.Metrics = registry

	sp = rec.begin("netsim.build", parent)
	nw, err := netsim.NewNetwork(cfg)
	if err != nil {
		return nil, err
	}
	in.nw = nw
	rec.end(sp)

	// Calibration is otherwise lazy, paid by the first traffic set-up call
	// that asks a link for a fidelity floor; asking for every floor the
	// traffic will use first gives it a span of its own.
	sp = rec.begin("photonics.calibrate", parent)
	floors := in.floors()
	for _, l := range nw.Links {
		for _, f := range floors {
			l.EGPA.FEU().AlphaForFidelity(f)
			l.EGPB.FEU().AlphaForFidelity(f)
		}
	}
	rec.end(sp)

	if w.e2e {
		sv := c.Service
		ncfg := network.DefaultConfig()
		ncfg.SwapGateFidelity = sv.SwapGateFidelity
		ncfg.Trace = tracer
		ncfg.Metrics = registry
		cost, ok := network.CostByName(nw, sv.Cost)
		if !ok {
			return nil, fmt.Errorf("unknown cost %q", sv.Cost)
		}
		ncfg.Cost = cost
		sp = rec.begin("network.build", parent)
		in.svc, err = network.NewService(nw, ncfg)
		if err != nil {
			return nil, err
		}
		rec.end(sp)

		sp = rec.begin("workload.attach", parent)
		in.attachE2E()
		rec.end(sp)

		sp = rec.begin("faults.schedule", parent)
		if err := c.Faults.Schedule(nw); err != nil {
			return nil, err
		}
		rec.end(sp)
	} else {
		sp = rec.begin("workload.attach", parent)
		in.mt, err = c.Attach(nw)
		if err != nil {
			return nil, err
		}
		if in.mt == nil {
			return nil, fmt.Errorf("workload %s: spec has no traffic classes", w.name)
		}
		rec.end(sp)
	}
	if err := in.hook(); err != nil {
		return nil, err
	}
	return in, nil
}

// attachE2E offers the spec's service traffic (load, k_max, floor,
// deadline) on every node pair.
func (in *instance) attachE2E() {
	tc := in.c.Service.Traffic
	tc.Pairs = nil
	for a := 0; a < len(in.nw.Nodes); a++ {
		for b := a + 1; b < len(in.nw.Nodes); b++ {
			tc.Pairs = append(tc.Pairs, [2]int{a, b})
		}
	}
	in.e2e = in.svc.AttachTraffic(tc)
	in.e2e.Start()
}

// compileSpec loads and compiles the workload's spec for the seed and shard
// count.
func compileSpec(w *workload, o buildOpts) (*scenario.Compiled, error) {
	data, err := specFS.ReadFile("specs/" + w.spec)
	if err != nil {
		return nil, err
	}
	spec, err := scenario.Parse(data, w.spec)
	if err != nil {
		return nil, err
	}
	// The seed drives the engine and, through it, the seeded outage plan.
	spec.Engine = &scenario.Engine{Seed: o.seed}
	if w.sharded {
		spec.Engine.Shards = shardCount()
		if o.shards > 0 {
			spec.Engine.Shards = o.shards
		}
	}
	return spec.Compile()
}

// floors lists the link-level fidelity floors the workload's traffic asks
// for: one per class, or the per-hop floor of every shortest-path length on
// the e2e grid (at most 4 hops on a 3x3 grid).
func (in *instance) floors() []float64 {
	if in.w.e2e {
		sv := in.c.Service
		var out []float64
		for hops := 1; hops <= 4; hops++ {
			out = append(out, network.PerHopFidelityFloor(sv.Traffic.MinFidelity, hops, sv.SwapGateFidelity))
		}
		return out
	}
	var out []float64
	for _, cl := range in.c.Classes {
		out = append(out, cl.MinFidelity)
	}
	return out
}

// linkTally is one link's view of the delivered pairs, fed by the chained
// OnLinkOK/OnLinkError hooks. Under the sharded engine a link's events run
// only on its own shard, so each tally has a single writer.
type linkTally struct {
	pairs     uint64
	done      uint64
	errs      uint64
	floorMet  uint64
	fidelity  float64
	ttp       []float64 // ms
	pairsPrio [3]uint64
	donePrio  [3]uint64
	errsPrio  [3]uint64
	// last maps an in-flight request (origin role, CreateID) to its previous
	// pair's delivery time.
	last map[uint32]sim.Time
}

// e2eTally is the e2e workload's view of delivered pairs and failures, fed
// by Service.OnOK and Service.OnError.
type e2eTally struct {
	pairs    uint64
	done     uint64
	errs     uint64
	floorMet uint64
	fidelity float64
	ttp      []float64 // ms
	last     map[network.RequestID]sim.Time
	ended    map[network.RequestID]bool
	twice    uint64 // requests that ended more than once
}

// hook chains the benchmark's accounting onto the program's observer hooks,
// keeping the observers already installed. Link pairs are matched to their
// class by priority lane, so each lane may carry one class only.
func (in *instance) hook() error {
	floorByPrio := [3]float64{}
	seen := [3]bool{}
	for _, cl := range in.c.Classes {
		if seen[cl.Priority] {
			return fmt.Errorf("workload %s: two classes share the %s lane", in.w.name, prioName[cl.Priority])
		}
		seen[cl.Priority] = true
		floorByPrio[cl.Priority] = cl.MinFidelity
	}
	in.links = make([]*linkTally, len(in.nw.Links))
	for i := range in.links {
		in.links[i] = &linkTally{last: map[uint32]sim.Time{}}
	}
	prevOK, prevErr := in.nw.OnLinkOK, in.nw.OnLinkError
	in.nw.OnLinkOK = func(l *netsim.Link, ev egp.OKEvent) {
		if prevOK != nil {
			prevOK(l, ev)
		}
		if !ev.OriginIsLocal {
			return
		}
		t := in.links[l.ID]
		t.pairs++
		t.pairsPrio[ev.Priority]++
		key := uint32(ev.Node[0])<<16 | uint32(ev.CreateID)
		from := ev.CreateTime
		if prev, ok := t.last[key]; ok && prev > from {
			from = prev
		}
		t.last[key] = ev.At
		t.ttp = append(t.ttp, ev.At.Sub(from).Seconds()*1e3)
		t.fidelity += ev.Fidelity
		if ev.Fidelity >= floorByPrio[ev.Priority] {
			t.floorMet++
		}
		if ev.RequestDone {
			delete(t.last, key)
			t.done++
			t.donePrio[ev.Priority]++
		}
	}
	in.nw.OnLinkError = func(l *netsim.Link, ev egp.ErrorEvent) {
		if prevErr != nil {
			prevErr(l, ev)
		}
		t := in.links[l.ID]
		delete(t.last, uint32(ev.Node[0])<<16|uint32(ev.CreateID))
		t.errs++
		t.errsPrio[ev.Priority]++
	}
	if in.svc == nil {
		return nil
	}
	floor := in.c.Service.Traffic.MinFidelity
	r := &e2eTally{last: map[network.RequestID]sim.Time{}, ended: map[network.RequestID]bool{}}
	in.reqs = r
	end := func(id network.RequestID) {
		if r.ended[id] {
			r.twice++
		}
		r.ended[id] = true
		delete(r.last, id)
	}
	prevSvcOK, prevSvcErr := in.svc.OnOK, in.svc.OnError
	in.svc.OnOK = func(ev network.OKEvent) {
		if prevSvcOK != nil {
			prevSvcOK(ev)
		}
		r.pairs++
		from := ev.At.Add(-ev.PairLatency)
		if prev, ok := r.last[ev.RequestID]; ok && prev > from {
			from = prev
		}
		r.last[ev.RequestID] = ev.At
		r.ttp = append(r.ttp, ev.At.Sub(from).Seconds()*1e3)
		r.fidelity += ev.Fidelity
		if ev.Fidelity >= floor {
			r.floorMet++
		}
		if ev.RequestDone {
			r.done++
			end(ev.RequestID)
		}
	}
	in.svc.OnError = func(ev network.ErrorEvent) {
		if prevSvcErr != nil {
			prevSvcErr(ev)
		}
		r.errs++
		end(ev.RequestID)
	}
	return nil
}

// sliceCount is how many equal slices a repetition's horizon is run in;
// each is one span of the trace.
const sliceCount = 10

// runSlices advances the instance through slices from..to-1 of its horizon.
// After each slice it runs the reference work. It returns the wall seconds
// the slices took, the same with each slice's time scaled to the reference
// speed (by refNominal over the reference's time after it), and the
// reference's times. A run cut short keeps the full run's slice boundaries,
// so on every engine it reaches the same state the full run passes through.
func (in *instance) runSlices(from, to int, rec *recorder, parent int) (wall, scaled float64, refs []float64) {
	step := in.horizon / sliceCount
	for i := from; i < to; i++ {
		d := step
		if i == sliceCount-1 {
			d = in.horizon - step*(sliceCount-1)
		}
		sp := rec.begin("run.slice", parent)
		in.nw.Run(d)
		w := rec.end(sp)
		wall += w
		sp = rec.begin("reference", parent)
		reference()
		ref := rec.end(sp)
		scaled += w * refNominal / ref
		refs = append(refs, ref)
	}
	return wall, scaled, refs
}

// simResult is what one run computes from simulated time only: a pure
// function of workload, seed and horizon. Repetitions, traced runs and
// (on a short window) serial and sharded runs must agree on it exactly.
type simResult struct {
	SimSeconds       float64
	Events, Attempts uint64
	Pairs            uint64
	// Offered counts requests; Completed, Failed and Outstanding partition
	// them at the end of the horizon (rejects count as failed).
	Offered, Completed, Failed, Outstanding uint64
	// FloorMet counts delivered pairs at or above their request's fidelity
	// floor; FidelitySum sums their true fidelities.
	FloorMet    uint64
	FidelitySum float64
	// TTP holds every pair's time-to-pair in ms, in delivery order per link
	// (per request on the e2e workload).
	TTP []float64
	// Layer holds the simulated-time per-layer metrics.
	Layer map[string]float64
}

// collect reads the simResult of the run so far and checks request
// conservation. It only reads program state, so it may be called between
// slices without changing the run.
func (in *instance) collect() (simResult, error) {
	nw := in.nw
	r := simResult{SimSeconds: nw.Sim.Now().Seconds(), Events: nw.Sim.Executed(), Attempts: nw.Attempts()}
	if in.reqs != nil {
		in.svc.FinishAt(nw.Sim.Now())
		t := in.reqs
		r.Pairs, r.FidelitySum, r.FloorMet = t.pairs, t.fidelity, t.floorMet
		r.TTP = slices.Clone(t.ttp)
		_, agg := in.svc.Stats()
		r.Offered = agg.Requests
		r.Completed = agg.Completed
		r.Failed = agg.Failed + agg.NoRoute
		if err := in.checkE2E(agg); err != nil {
			return r, err
		}
	} else {
		for _, t := range in.links {
			r.Pairs += t.pairs
			r.FidelitySum += t.fidelity
			r.FloorMet += t.floorMet
			r.TTP = append(r.TTP, t.ttp...)
		}
		for _, a := range in.mt.Accounts() {
			r.Offered += a.Offered
			r.Completed += a.Completed
			r.Failed += a.Rejected + a.TimedOut + a.Outage + a.Failed
		}
		if err := in.checkClasses(); err != nil {
			return r, err
		}
	}
	if r.Completed+r.Failed > r.Offered {
		return r, fmt.Errorf("conservation: %d completed + %d failed exceed %d offered", r.Completed, r.Failed, r.Offered)
	}
	r.Outstanding = r.Offered - r.Completed - r.Failed
	r.Layer = in.simLayers()
	return r, nil
}

// pooled sums the results of the repetitions over distinct sub-seeds.
func pooled(rs []simResult) simResult {
	var p simResult
	for _, r := range rs {
		p.SimSeconds += r.SimSeconds
		p.Events += r.Events
		p.Attempts += r.Attempts
		p.Pairs += r.Pairs
		p.Offered += r.Offered
		p.Completed += r.Completed
		p.Failed += r.Failed
		p.Outstanding += r.Outstanding
		p.FloorMet += r.FloorMet
		p.FidelitySum += r.FidelitySum
		p.TTP = append(p.TTP, r.TTP...)
	}
	return p
}

// service is the delivered-service view of a (pooled) result: the
// simulated-time end-to-end metrics.
type service struct {
	PairsPerSimS, TTPP50ms, TTPP90ms  float64
	ServedRatio, FailedRatio          float64
	FidelityMean, FloorMet, FloorMiss float64
}

func (r simResult) service() service {
	var ttp metrics.Series
	for _, v := range r.TTP {
		ttp.Add(v)
	}
	s := service{
		PairsPerSimS: float64(r.Pairs) / r.SimSeconds,
		TTPP50ms:     ttp.Percentile(50),
		TTPP90ms:     ttp.Percentile(90),
	}
	if ended := r.Completed + r.Failed; ended > 0 {
		s.ServedRatio = float64(r.Completed) / float64(ended)
		s.FailedRatio = float64(r.Failed) / float64(ended)
	}
	if r.Pairs > 0 {
		s.FidelityMean = r.FidelitySum / float64(r.Pairs)
		s.FloorMet = float64(r.FloorMet) / float64(r.Pairs)
		s.FloorMiss = 1 - s.FloorMet
	}
	return s
}

// checkClasses checks request conservation per class of the multi-class
// workload: the workload engine's accounts must agree with what the link
// layer reported through the hooks and with the links' own counters.
func (in *instance) checkClasses() error {
	var pairsPrio, donePrio, errsPrio [3]uint64
	var submitted uint64
	for i, t := range in.links {
		for p := 0; p < 3; p++ {
			pairsPrio[p] += t.pairsPrio[p]
			donePrio[p] += t.donePrio[p]
			errsPrio[p] += t.errsPrio[p]
		}
		submitted += in.nw.Links[i].Submitted
	}
	var accepted uint64
	for i, a := range in.mt.Accounts() {
		cl := in.c.Classes[i]
		p := cl.Priority
		switch {
		case a.Rejected > a.Offered:
			return fmt.Errorf("conservation: class %s rejected %d of %d offered", cl.Name, a.Rejected, a.Offered)
		case a.Terminal() > a.Offered-a.Rejected:
			return fmt.Errorf("conservation: class %s ended %d of %d accepted", cl.Name, a.Terminal(), a.Offered-a.Rejected)
		case a.Pairs != pairsPrio[p]:
			return fmt.Errorf("conservation: class %s counted %d pairs, the link layer delivered %d", cl.Name, a.Pairs, pairsPrio[p])
		case a.Completed != donePrio[p]:
			return fmt.Errorf("conservation: class %s counted %d completed, the link layer reported %d", cl.Name, a.Completed, donePrio[p])
		case a.TimedOut+a.Outage+a.Failed+a.Rejected-a.NoRoute != errsPrio[p]:
			// The link layer reports a reject with an error event too,
			// unless the link was down (NoRoute).
			return fmt.Errorf("conservation: class %s counted %d failures and rejects, the link layer reported %d", cl.Name, a.TimedOut+a.Outage+a.Failed+a.Rejected-a.NoRoute, errsPrio[p])
		case a.Pairs < a.Completed*uint64(max(cl.MinPairs, cl.FixedPairs, 1)):
			return fmt.Errorf("conservation: class %s completed %d requests with only %d pairs", cl.Name, a.Completed, a.Pairs)
		}
		accepted += a.Offered - a.Rejected
	}
	if accepted != submitted {
		return fmt.Errorf("conservation: classes accepted %d requests, the links %d", accepted, submitted)
	}
	return nil
}

// checkE2E checks request conservation of the e2e aggregate: every offered
// request is completed, failed or still outstanding, each ends at most
// once, and the service's statistics agree with its OK/error callbacks.
func (in *instance) checkE2E(agg network.PathStats) error {
	t := in.reqs
	offered := in.e2e.Submitted()
	switch {
	case agg.Requests != offered:
		return fmt.Errorf("conservation: e2e stats count %d requests, the generators offered %d", agg.Requests, offered)
	case t.twice != 0:
		return fmt.Errorf("conservation: %d e2e requests ended twice", t.twice)
	case agg.Completed != t.done:
		return fmt.Errorf("conservation: e2e stats count %d completed, OnOK reported %d", agg.Completed, t.done)
	case agg.Failed+agg.NoRoute != t.errs:
		return fmt.Errorf("conservation: e2e stats count %d failed, OnError reported %d", agg.Failed+agg.NoRoute, t.errs)
	case uint64(agg.Pairs) != t.pairs:
		return fmt.Errorf("conservation: e2e stats count %d pairs, OnOK reported %d", agg.Pairs, t.pairs)
	}
	return nil
}

// simLayers computes the per-layer metrics that depend on simulated time
// only.
func (in *instance) simLayers() map[string]float64 {
	m := map[string]float64{}
	nw := in.nw
	m["sim.events"] = float64(nw.Sim.Executed())
	if se := nw.Sharded(); se != nil {
		m["sim.windows"] = float64(se.Windows())
		m["sim.merged"] = float64(se.Merged())
		if se.Windows() > 0 {
			m["sim.events_per_window"] = float64(nw.Sim.Executed()) / float64(se.Windows())
		}
	}
	m["mhp.attempts"] = float64(nw.Attempts())

	var done, errs uint64
	for _, t := range in.links {
		done += t.done
		errs += t.errs
	}
	m["egp.ok_ratio"] = ratio(float64(done), float64(done+errs))
	_, agg := nw.Stats()
	m["egp.queue_mean"] = agg.QueueMean
	m["egp.queue_max"] = agg.QueueMax
	m["egp.latency_p50_ms"] = agg.LatencyP50 * 1e3
	m["egp.latency_p90_ms"] = agg.LatencyP90 * 1e3
	m["netsim.downtime_s"] = agg.DowntimeSeconds
	m["netsim.recover_s"] = agg.RecoverySeconds

	if in.svc != nil {
		_, e := in.svc.Stats()
		m["network.swaps"] = float64(in.svc.Swaps())
		m["network.frames_sent"] = float64(in.svc.FramesSent())
		m["network.reroutes"] = float64(e.Reroutes)
		m["network.retries"] = float64(e.Retries)
		m["network.noroute"] = float64(e.NoRoute)
		m["network.swap_p50_ms"] = e.SwapP50 * 1e3
		m["network.swap_p90_ms"] = e.SwapP90 * 1e3
		if e.Pairs > 0 {
			m["network.fidelity_gap"] = e.Predicted - e.Fidelity
		}
	}
	if in.mt != nil {
		accounts := in.mt.Accounts()
		waits := in.mt.OldestWaits()
		for i, cl := range in.c.Classes {
			a := accounts[i]
			name := "workload." + prioName[cl.Priority]
			m[name+".offered"] = float64(a.Offered)
			m[name+".timeout_ratio"] = ratio(float64(a.TimedOut), float64(a.Terminal()))
			m[name+".ttp_p90_ms"] = a.TTP.Percentile(90) * 1e3
			m["workload.oldest_wait_s"] = math.Max(m["workload.oldest_wait_s"], waits[i])
		}
	}
	return m
}

// prioName names the EGP priority lanes as the metric names use them.
var prioName = [3]string{"nl", "ck", "md"}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
