package netsim

import (
	"repro/internal/egp"
	"repro/internal/nv"
	"repro/internal/sim"
	"repro/internal/workload"
)

// CycleTraffic issues CREATE requests on every link of a network with the
// per-cycle arrival model of the paper's Section 6: in every MHP cycle a
// request of class P asking for k pairs arrives with probability
// f_P·psucc/(E·k) (see workload.PerCycleProbability). It drives the paper
// tables of internal/experiments. Each link ticks on its own engine view and
// draws from its own RNG stream, so the trajectory does not depend on the
// shard count.
type CycleTraffic struct {
	net     *Network
	origin  workload.Origin
	classes []workload.Class
	links   []*cycleLink
	started bool
}

// cycleLink is one link's slice of the generator, touched only from the
// link's own shard.
type cycleLink struct {
	link *Link
	// baseProb[i] is class i's per-cycle arrival probability before dividing
	// by the sampled pair count k.
	baseProb  []float64
	submitted uint64
	stop      func()
}

// AttachCycleTraffic installs a per-cycle generator; it starts and stops with
// the network and replaces any previously attached traffic generator. The
// per-class probabilities come from each link's own FEU and the platform
// constants.
func (nw *Network) AttachCycleTraffic(origin workload.Origin, classes []workload.Class) *CycleTraffic {
	ct := &CycleTraffic{net: nw, origin: origin, classes: classes}
	for _, l := range nw.Links {
		cl := &cycleLink{link: l}
		for _, c := range classes {
			cl.baseProb = append(cl.baseProb, workload.PerCycleProbability(l.EGPA.FEU(), nw.Platform, c.Keep(), c.Fraction, c.MinFidelity))
		}
		ct.links = append(ct.links, cl)
	}
	nw.traffic = ct
	return ct
}

// Start begins sampling arrivals on every MHP cycle of every link. It is
// idempotent while running.
func (ct *CycleTraffic) Start() {
	if ct.started {
		return
	}
	ct.started = true
	period := ct.net.Platform.CycleTime[nv.RequestMeasure]
	for _, cl := range ct.links {
		cl.stop = sim.Ticker(cl.link.Eng, period, func() { ct.tick(cl) })
	}
}

// Stop halts arrivals.
func (ct *CycleTraffic) Stop() {
	ct.started = false
	for _, cl := range ct.links {
		if cl.stop != nil {
			cl.stop()
			cl.stop = nil
		}
	}
}

// Submitted returns how many requests the generator has issued (accepted or
// rejected) across all links and classes.
func (ct *CycleTraffic) Submitted() uint64 {
	var n uint64
	for _, cl := range ct.links {
		n += cl.submitted
	}
	return n
}

// tick runs once per MHP cycle on one link and samples an arrival for each
// class. The draw order (pair count k, Bernoulli trial, origin) is part of
// the trajectory: changing it moves every paper table.
func (ct *CycleTraffic) tick(cl *cycleLink) {
	rng := cl.link.Eng.RNG()
	for i, c := range ct.classes {
		if c.Fraction <= 0 {
			continue
		}
		k := c.FixedPairs
		if k <= 0 {
			k = 1
			if c.MaxPairs > 1 {
				k = 1 + rng.Intn(c.MaxPairs)
			}
		}
		if !rng.Bernoulli(cl.baseProb[i] / float64(k)) {
			continue
		}
		role := roleA
		switch ct.origin {
		case workload.OriginB:
			role = roleB
		case workload.OriginRandom:
			if rng.Bernoulli(0.5) {
				role = roleB
			}
		}
		ct.net.Submit(cl.link, role, egp.CreateRequest{
			NumPairs:    k,
			Keep:        c.Keep(),
			MinFidelity: c.MinFidelity,
			MaxTime:     c.MaxTime,
			Priority:    c.Priority,
			PurposeID:   uint16(1000 + c.Priority),
			Consecutive: c.Priority == egp.PriorityNL || c.Priority == egp.PriorityMD,
		})
		cl.submitted++
	}
}
