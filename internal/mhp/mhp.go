// Package mhp implements the physical-layer Midpoint Heralding Protocol of
// Section 5.1: the node-side protocol that polls the link layer every MHP
// cycle, triggers entanglement generation attempts and forwards midpoint
// replies upwards, and the midpoint (heralding station) service that matches
// GEN frames from the two nodes, performs the optical Bell-state
// measurement, and announces the outcome.
//
// The package is deliberately stateless on the node side (beyond the pending
// attempt bookkeeping required to route replies), mirroring the paper's
// requirement that the physical layer holds no protocol state.
package mhp

import (
	"fmt"

	"repro/internal/classical"
	"repro/internal/nv"
	"repro/internal/obs"
	"repro/internal/photonics"
	"repro/internal/quantum"
	"repro/internal/sim"
	"repro/internal/wire"
)

// PollDecision is the link layer's answer to the per-cycle trigger poll
// (the "yes/no + parameters" of Figure 4).
type PollDecision struct {
	Attempt bool
	// QueueID identifies the distributed-queue item this attempt serves; it
	// is transmitted to the midpoint for consistency checking.
	QueueID wire.AbsoluteQueueID
	// Keep is true for create-and-keep (K) attempts, false for
	// measure-directly (M).
	Keep bool
	// Alpha is the bright-state population to use.
	Alpha float64
	// MeasureBasis is the basis for M attempts (0=Z,1=X,2=Y).
	MeasureBasis quantum.BasisLabel
	// StorageQubit is the memory qubit to move the pair to for K attempts
	// (CommQubitID to keep it in the communication qubit).
	StorageQubit nv.QubitID
}

// Result is what the node-side MHP passes back up to the link layer after a
// reply (or local failure), corresponding to the RESULT of Protocol 1.
type Result struct {
	Outcome   wire.MHPOutcome
	MHPSeq    uint16
	QueueID   wire.AbsoluteQueueID // this node's submitted queue ID
	PeerQueue wire.AbsoluteQueueID // the peer's submitted queue ID as echoed by H
	// Keep/MeasureBasis/StorageQubit/Alpha echo the attempt parameters so the
	// link layer can complete post-processing.
	Keep         bool
	MeasureBasis quantum.BasisLabel
	StorageQubit nv.QubitID
	Alpha        float64
	// Pair is this node's view of the freshly generated entangled pair when
	// Outcome.Success() is true (claimed from the shared pair registry).
	Pair *nv.EntangledPair
	// AttemptCycle is the MHP cycle in which the attempt was triggered.
	AttemptCycle uint64
}

// Generator is implemented by the link layer (EGP): it is polled once per
// MHP cycle and receives results asynchronously.
type Generator interface {
	// PollTrigger is called at the start of every MHP cycle.
	PollTrigger(cycle uint64) PollDecision
	// HandleResult delivers the outcome of a previously triggered attempt.
	HandleResult(r Result)
}

// PairRegistry shares freshly generated entangled pairs between the midpoint
// (which creates them) and the two nodes' link layers (which claim their
// side upon receiving the REPLY). It stands in for "the qubit is already
// physically at the node" — only classical information travels in REPLY.
type PairRegistry struct {
	pairs map[uint16]*nv.EntangledPair
	// newest is the most recently assigned sequence number; Sweep measures
	// staleness against it in circular uint16 distance.
	newest    uint16
	hasNewest bool
	evicted   uint64
}

// Registry eviction parameters: a sweep runs whenever the registry exceeds
// the high-water mark, and unconditionally from the node-side maintenance
// pass; entries lagging the newest sequence number by more than the lag are
// dropped. The lag comfortably exceeds the deepest reply pipeline (the EGP
// caps outstanding multiplexed attempts at 64).
const (
	registryHighWater = 2048
	registryMaxLag    = 1024
)

// NewPairRegistry creates an empty registry.
func NewPairRegistry() *PairRegistry {
	return &PairRegistry{pairs: make(map[uint16]*nv.EntangledPair)}
}

// Put stores the pair generated for the given midpoint sequence number. The
// registry keeps a bounded history: once it exceeds the high-water mark,
// entries far behind the newest sequence number are swept out, since both
// nodes have long since processed (or expired) them.
func (r *PairRegistry) Put(seq uint16, pair *nv.EntangledPair) {
	r.pairs[seq] = pair
	r.newest = seq
	r.hasNewest = true
	if len(r.pairs) > registryHighWater {
		r.Sweep(registryMaxLag)
	}
}

// Sweep evicts entries whose sequence number lags the newest assigned
// sequence by more than maxLag in circular uint16 distance, returning how
// many were dropped. Without it the registry would retain pairs forever when
// REPLY frames are lost (the nodes never claim them), so the node-side MHP
// calls Sweep from the same periodic maintenance pass that drops stale
// pending attempts.
func (r *PairRegistry) Sweep(maxLag uint16) int {
	if !r.hasNewest {
		return 0
	}
	evicted := 0
	for s := range r.pairs {
		if r.newest-s > maxLag { // circular distance behind newest
			delete(r.pairs, s)
			evicted++
		}
	}
	r.evicted += uint64(evicted)
	return evicted
}

// Evicted returns how many entries sweeps have dropped so far.
func (r *PairRegistry) Evicted() uint64 { return r.evicted }

// Get returns the pair for a midpoint sequence number, or nil.
func (r *PairRegistry) Get(seq uint16) *nv.EntangledPair { return r.pairs[seq] }

// Forget drops a pair from the registry once both sides have claimed it (or
// it expired).
func (r *PairRegistry) Forget(seq uint16) { delete(r.pairs, seq) }

// Len returns how many pairs are registered.
func (r *PairRegistry) Len() int { return len(r.pairs) }

// genPayload is the payload travelling from a node to the midpoint: the
// encoded GEN frame plus the physical "photon" (its emission parameters).
// The photon cannot be lost independently of the frame here because photon
// loss is already part of the optical model sampled at the midpoint; what
// matters for protocol robustness is losing the classical frame.
//
// Payloads travel as pointers, which box into the channel's any without
// allocating, and are recycled through the sending node's free list.
type genPayload struct {
	// frame is the encoded GEN frame; for pooled payloads it aliases buf.
	frame []byte
	buf   [wire.GENFrameLen]byte
	alpha float64
	side  nv.PairSide
	cycle uint64
	// gen is the frame as decoded on arrival at the midpoint, kept for the
	// matching and hold-timeout paths.
	gen  wire.GENFrame
	pool *freeList[genPayload]
}

// release returns the payload to its free list (a no-op for unpooled
// payloads).
func (p *genPayload) release() {
	if p.pool != nil {
		p.pool.put(p)
	}
}

// replyPayload carries the encoded REPLY frame from the midpoint to a node;
// it is recycled through the midpoint's free list once the node has decoded
// it.
type replyPayload struct {
	// frame is the encoded REPLY frame; for pooled payloads it aliases buf.
	frame []byte
	buf   [wire.REPLYFrameLen]byte
	pool  *freeList[replyPayload]
}

func (p *replyPayload) release() {
	if p.pool != nil {
		p.pool.put(p)
	}
}

// freeList recycles the per-attempt payloads. A node draws a GEN payload per
// attempt and the midpoint returns it once it is done with the frame: on
// arrival when the frame matched a waiting peer, or when its hold timer
// fires. REPLY payloads run the other way. A frame lost on the channel is
// simply never returned. Every part of a link (both nodes and the midpoint)
// runs on the engine that owns the link, so the list needs no locking.
type freeList[T any] []*T

func (l *freeList[T]) put(x *T) { *l = append(*l, x) }

// take returns a recycled payload, or nil when the list is empty.
func (l *freeList[T]) take() *T {
	n := len(*l)
	if n == 0 {
		return nil
	}
	x := (*l)[n-1]
	(*l)[n-1] = nil
	*l = (*l)[:n-1]
	return x
}

// pendingAttempt is one triggered attempt awaiting its REPLY.
type pendingAttempt struct {
	cycle    uint64
	decision PollDecision
}

// Node is the node-side MHP instance.
type Node struct {
	Name string

	simul    sim.Engine
	gen      Generator
	device   *nv.Device
	registry *PairRegistry
	side     nv.PairSide

	toMidpoint *classical.Channel

	cycle      uint64
	cycleTimeK sim.Duration
	cycleTimeM sim.Duration
	// pending holds the attempts awaiting a REPLY in trigger order, which is
	// cycle order: a FIFO consumed from pendingHead, so the oldest attempt
	// matching a reply's queue ID is the first hit of a forward scan.
	pending      []pendingAttempt
	pendingHead  int
	genFree      freeList[genPayload]
	attemptCount uint64
	localFails   uint64

	// Flight-recorder hooks; all nil-safe, nil when observability is off.
	trace   *obs.Ring
	traceID uint64
	metrics *obs.MHPMetrics

	// paused stops attempt generation (the link-admin Down state): the cycle
	// clock keeps ticking and maintenance sweeps keep running, but the
	// generator is no longer polled. rateDivisor, when >1, throttles a
	// Degraded link to polling only every Nth cycle. Both cost one branch per
	// cycle when inactive, keeping fault plumbing zero-cost when off.
	paused      bool
	rateDivisor uint64

	// CommBusy tracks whether the communication qubit is mid-attempt for a
	// K request (the EGP uses this to avoid double-triggering).
	awaitingReply bool
}

// NodeConfig collects the parameters needed to construct a node-side MHP.
type NodeConfig struct {
	Name       string
	Sim        sim.Engine
	Generator  Generator
	Device     *nv.Device
	Registry   *PairRegistry
	Side       nv.PairSide
	ToMidpoint *classical.Channel
	CycleTimeK sim.Duration
	CycleTimeM sim.Duration

	// Trace, when non-nil, records attempt/REPLY lifecycle events under
	// track TraceID (the link ID); Metrics publishes attempt counters. Both
	// are nil-safe and nil by default.
	Trace   *obs.Ring
	TraceID uint64
	Metrics *obs.MHPMetrics
}

// NewNode builds a node-side MHP instance.
func NewNode(cfg NodeConfig) *Node {
	if cfg.Sim == nil || cfg.Generator == nil || cfg.Device == nil || cfg.Registry == nil || cfg.ToMidpoint == nil {
		panic("mhp: incomplete node configuration")
	}
	return &Node{
		Name:       cfg.Name,
		simul:      cfg.Sim,
		gen:        cfg.Generator,
		device:     cfg.Device,
		registry:   cfg.Registry,
		side:       cfg.Side,
		toMidpoint: cfg.ToMidpoint,
		cycleTimeK: cfg.CycleTimeK,
		cycleTimeM: cfg.CycleTimeM,
		trace:      cfg.Trace,
		traceID:    cfg.TraceID,
		metrics:    cfg.Metrics,
	}
}

// Cycle returns the current MHP cycle number.
func (n *Node) Cycle() uint64 { return n.cycle }

// SetPaused pauses (or resumes) attempt generation. While paused the cycle
// clock and registry maintenance keep running so a repaired link resumes on
// the same deterministic cycle grid.
func (n *Node) SetPaused(p bool) { n.paused = p }

// Paused reports whether attempt generation is paused.
func (n *Node) Paused() bool { return n.paused }

// SetRateDivisor throttles attempt generation to one poll every d cycles
// (the Degraded reduced-rate mode); d <= 1 restores the full rate.
func (n *Node) SetRateDivisor(d uint64) { n.rateDivisor = d }

// ClearPending discards every attempt still awaiting a REPLY — the dying
// link's in-flight attempts, whose replies (if any) will find no matching
// queue item anyway.
func (n *Node) ClearPending() {
	n.pending = n.pending[:0]
	n.pendingHead = 0
}

// Attempts returns how many attempts this node has triggered.
func (n *Node) Attempts() uint64 { return n.attemptCount }

// Start begins the periodic MHP cycle using the M-type cycle period as the
// base clock (the finest granularity at which the EGP can be polled); the
// EGP's scheduler is responsible for not triggering K attempts faster than
// the hardware allows.
func (n *Node) Start() (stop func()) {
	period := n.cycleTimeM
	if period <= 0 {
		period = n.cycleTimeK
	}
	if period <= 0 {
		panic("mhp: node has no positive cycle time")
	}
	return sim.Ticker(n.simul, period, n.runCycle)
}

// runCycle executes one MHP cycle: poll the EGP and trigger if requested.
func (n *Node) runCycle() {
	n.cycle++
	// Periodically discard pending-attempt state whose REPLY was evidently
	// lost, so the map stays bounded during long lossy runs; sweep the shared
	// pair registry in the same pass, since lost REPLYs also strand pairs
	// that neither node will ever claim.
	if n.cycle%1024 == 0 {
		if n.PendingAttempts() > 0 && n.cycle > 4096 {
			n.DropPending(n.cycle - 4096)
		}
		n.registry.Sweep(registryMaxLag)
	}
	if n.paused {
		return
	}
	if n.rateDivisor > 1 && n.cycle%n.rateDivisor != 0 {
		return
	}
	decision := n.gen.PollTrigger(n.cycle)
	if !decision.Attempt {
		return
	}
	// Local hardware failure path (GEN_FAIL): initialising the communication
	// qubit can fail; modelled as an immediate local error result. The
	// electron initialisation infidelity is already part of the optical
	// model, so here GEN_FAIL only fires when the communication qubit is
	// unavailable (should not happen if the EGP tracks state correctly).
	if decision.Keep && !n.device.CommFree() {
		n.localFails++
		n.gen.HandleResult(Result{
			Outcome:      wire.ErrGeneralFailure,
			QueueID:      decision.QueueID,
			Keep:         decision.Keep,
			Alpha:        decision.Alpha,
			AttemptCycle: n.cycle,
		})
		return
	}
	n.attemptCount++
	keep := int64(0)
	if decision.Keep {
		keep = 1
	}
	n.trace.Record(n.simul.Now(), obs.KindMHPAttempt, n.traceID, int64(n.cycle), keep)
	if n.metrics != nil {
		n.metrics.Attempts.Inc()
	}
	// Triggering an attempt dephases carbon-stored pairs at this node
	// (Appendix D.4.1).
	n.device.ApplyAttemptDephasing(decision.Alpha)

	n.pushPending(decision)
	payload := n.genFree.take()
	if payload == nil {
		payload = &genPayload{pool: &n.genFree}
		payload.frame = payload.buf[:]
	}
	wire.GENFrame{QueueID: decision.QueueID, Timestamp: n.cycle}.EncodeTo(&payload.buf)
	payload.alpha = decision.Alpha
	payload.side = n.side
	payload.cycle = n.cycle
	n.toMidpoint.Send(payload)
}

// pushPending appends the attempt triggered in the current cycle to the
// pending FIFO, first reclaiming the consumed prefix once it passes half
// the backing array (amortised O(1), so the FIFO never reallocates in
// steady state).
func (n *Node) pushPending(d PollDecision) {
	if n.pendingHead > 0 && n.pendingHead*2 >= len(n.pending) {
		k := copy(n.pending, n.pending[n.pendingHead:])
		n.pending = n.pending[:k]
		n.pendingHead = 0
	}
	n.pending = append(n.pending, pendingAttempt{cycle: n.cycle, decision: d})
}

// removePending deletes the pending attempt at index i, keeping the FIFO in
// cycle order by shifting the older entries up one slot (replies normally
// arrive in order, so i is almost always the head and nothing moves).
func (n *Node) removePending(i int) {
	copy(n.pending[n.pendingHead+1:i+1], n.pending[n.pendingHead:i])
	n.pendingHead++
	if n.pendingHead == len(n.pending) {
		n.ClearPending()
	}
}

// HandleReply processes a REPLY frame delivered from the midpoint.
func (n *Node) HandleReply(msg classical.Message) {
	payload, ok := msg.Payload.(*replyPayload)
	if !ok {
		return
	}
	reply, err := wire.DecodeREPLY(payload.frame)
	payload.release()
	if err != nil {
		return
	}
	n.trace.Record(n.simul.Now(), obs.KindMHPReply, n.traceID, int64(reply.Outcome), int64(reply.MHPSeq))
	// Match the reply to the pending attempt by the echoed queue ID: the
	// oldest matching attempt, which is the first hit in cycle order.
	var cycle uint64
	var decision PollDecision
	for i := n.pendingHead; i < len(n.pending); i++ {
		if p := n.pending[i]; p.decision.QueueID == reply.QueueID {
			cycle, decision = p.cycle, p.decision
			n.removePending(i)
			break
		}
	}
	result := Result{
		Outcome:      reply.Outcome,
		MHPSeq:       reply.MHPSeq,
		QueueID:      reply.QueueID,
		PeerQueue:    reply.PeerQueue,
		Keep:         decision.Keep,
		MeasureBasis: decision.MeasureBasis,
		StorageQubit: decision.StorageQubit,
		Alpha:        decision.Alpha,
		AttemptCycle: cycle,
	}
	if reply.Outcome.Success() {
		result.Pair = n.registry.Get(reply.MHPSeq)
	}
	n.gen.HandleResult(result)
}

// PendingAttempts returns how many attempts are awaiting a REPLY (used by
// tests and by the EGP's emission-multiplexing logic).
func (n *Node) PendingAttempts() int { return len(n.pending) - n.pendingHead }

// DropPending discards pending attempt state older than the given cycle;
// used by the EGP when it declares attempts lost.
func (n *Node) DropPending(olderThan uint64) {
	for n.pendingHead < len(n.pending) && n.pending[n.pendingHead].cycle < olderThan {
		n.pendingHead++
	}
	if n.pendingHead == len(n.pending) {
		n.ClearPending()
	}
}

// Midpoint is the heralding-station service: it pairs up GEN frames arriving
// from A and B in the same detection time window, consults the optical model
// for the measurement outcome, and sends REPLY frames to both nodes.
type Midpoint struct {
	simul    sim.Engine
	sampler  *photonics.LinkSampler
	registry *PairRegistry

	toA *classical.Channel
	toB *classical.Channel

	// windowCycles is how many MHP cycles apart two GEN messages may be and
	// still be considered the same attempt (the detection time window).
	windowCycles uint64
	// holdTime is how long an unmatched GEN is held waiting for the peer's
	// GEN of the same cycle before the attempt is reported back as
	// NO_MESSAGE_OTHER. It must exceed the propagation asymmetry of the two
	// arms plus scheduling jitter.
	holdTime sim.Duration

	// depolarize, when in (0,1), applies a single-qubit depolarising channel
	// of that fidelity to every freshly heralded pair — the Degraded link
	// state's lowered-fidelity mode. 0 (the default) is off at the cost of
	// one comparison per heralded success.
	depolarize float64

	seq uint16
	// waiting holds unmatched GEN frames per node side, keyed by the attempt
	// cycle carried in the frame's timestamp: the station links messages to
	// detection windows by timestamp, not by arrival order, so emission
	// multiplexing over asymmetric fibre arms pairs the right attempts.
	waiting [2]map[uint64]*genPayload
	// onHold is the prebuilt hold-timeout handler; each held GEN schedules
	// it with the payload as argument instead of a fresh closure.
	onHold    sim.ArgHandler
	replyFree freeList[replyPayload]

	// Statistics.
	matched       uint64
	successes     uint64
	timeMismatch  uint64
	queueMismatch uint64
	noOther       uint64

	// Flight-recorder hooks; all nil-safe, nil when observability is off.
	trace   *obs.Ring
	traceID uint64
	metrics *obs.MHPMetrics
}

// MidpointConfig collects the construction parameters of a Midpoint.
type MidpointConfig struct {
	Sim          sim.Engine
	Sampler      *photonics.LinkSampler
	Registry     *PairRegistry
	ToA          *classical.Channel
	ToB          *classical.Channel
	WindowCycles uint64
	// HoldTime bounds how long an unmatched GEN waits for its counterpart;
	// it defaults to 500 µs which covers the QL2020 arm asymmetry with ample
	// margin.
	HoldTime sim.Duration

	// Trace, when non-nil, records heralding decisions under track TraceID
	// (the link ID); Metrics publishes match/success counters.
	Trace   *obs.Ring
	TraceID uint64
	Metrics *obs.MHPMetrics
}

// NewMidpoint builds the heralding-station service.
func NewMidpoint(cfg MidpointConfig) *Midpoint {
	if cfg.Sim == nil || cfg.Sampler == nil || cfg.Registry == nil || cfg.ToA == nil || cfg.ToB == nil {
		panic("mhp: incomplete midpoint configuration")
	}
	w := cfg.WindowCycles
	if w == 0 {
		w = 1
	}
	hold := cfg.HoldTime
	if hold <= 0 {
		hold = 500 * sim.Microsecond
	}
	m := &Midpoint{
		simul:        cfg.Sim,
		sampler:      cfg.Sampler,
		registry:     cfg.Registry,
		toA:          cfg.ToA,
		toB:          cfg.ToB,
		windowCycles: w,
		holdTime:     hold,
		waiting:      [2]map[uint64]*genPayload{{}, {}},
		trace:        cfg.Trace,
		traceID:      cfg.TraceID,
		metrics:      cfg.Metrics,
	}
	m.onHold = m.holdExpired
	return m
}

// Stats reports the midpoint's counters: matched attempt pairs, heralded
// successes, and the three error classes.
func (m *Midpoint) Stats() (matched, successes, timeMismatch, queueMismatch, noOther uint64) {
	return m.matched, m.successes, m.timeMismatch, m.queueMismatch, m.noOther
}

// Sequence returns the next MHP sequence number to be assigned.
func (m *Midpoint) Sequence() uint16 { return m.seq }

// SetDepolarizing applies a single-qubit depolarising channel of the given
// fidelity to every future heralded pair (the Degraded lowered-fidelity
// mode); f <= 0 or f >= 1 turns the channel off.
func (m *Midpoint) SetDepolarizing(f float64) {
	if f <= 0 || f >= 1 {
		m.depolarize = 0
		return
	}
	m.depolarize = f
}

// HandleGEN processes a GEN frame (and accompanying photon) from either node.
func (m *Midpoint) HandleGEN(msg classical.Message) {
	payload, ok := msg.Payload.(*genPayload)
	if !ok {
		return
	}
	// Decode once on arrival; the decoded frame serves validation, the
	// timeout path and the matching path below.
	genSelf, err := wire.DecodeGEN(payload.frame)
	if err != nil {
		payload.release()
		return
	}
	payload.gen = genSelf
	// Link the message to a detection window by its timestamp: look for a
	// waiting peer GEN whose cycle lies within the detection window.
	other := otherSide(payload.side)
	peer := m.findPeerGEN(other, payload.cycle)
	if peer == nil {
		// Hold this GEN waiting for the peer's; if it never arrives the
		// attempt is reported back as NO_MESSAGE_OTHER (or TIME_MISMATCH
		// when the peer was attempting different cycles). The hold timer
		// owns the payload from here and releases it when it fires.
		m.waiting[payload.side][payload.cycle] = payload
		sim.ScheduleArg(m.simul, m.holdTime, m.onHold, payload)
		return
	}
	delete(m.waiting[other], peer.cycle)
	m.herald(payload, peer)
	// The peer stays owned by its own pending hold timer.
	payload.release()
}

// holdExpired is the hold timer of one held GEN: if the GEN is still
// waiting for its peer, the attempt is reported back as an error.
func (m *Midpoint) holdExpired(_ sim.Time, arg any) {
	p := arg.(*genPayload)
	if _, still := m.waiting[p.side][p.cycle]; still {
		delete(m.waiting[p.side], p.cycle)
		if len(m.waiting[otherSide(p.side)]) > 0 {
			m.timeMismatch++
			m.trace.Record(m.simul.Now(), obs.KindHeraldDrop, m.traceID, 0, int64(p.cycle))
			m.sendError(p.side, p.gen.QueueID, wire.ErrTimeMismatch)
		} else {
			m.noOther++
			m.trace.Record(m.simul.Now(), obs.KindHeraldDrop, m.traceID, 1, int64(p.cycle))
			m.sendError(p.side, p.gen.QueueID, wire.ErrNoMessageOther)
		}
	}
	p.release()
}

// herald checks a matched GEN pair for queue consistency, performs the
// optical Bell-state measurement and announces the outcome to both nodes.
func (m *Midpoint) herald(payload, peer *genPayload) {
	genSelf, genPeer := payload.gen, peer.gen

	// Queue-ID consistency check.
	if genSelf.QueueID != genPeer.QueueID {
		m.queueMismatch++
		m.trace.Record(m.simul.Now(), obs.KindHeraldDrop, m.traceID, 2, int64(payload.cycle))
		m.sendErrorBoth(payload, peer, wire.ErrQueueMismatch)
		return
	}
	m.matched++
	if m.metrics != nil {
		m.metrics.Matched.Inc()
	}

	// Perform the optical Bell-state measurement. By convention A is the
	// first argument.
	a, b := payload, peer
	if payload.side == nv.SideB {
		a, b = peer, payload
	}
	res := m.sampler.Sample(a.alpha, b.alpha, m.simul.RNG())

	outcome := wire.OutcomeFailure
	switch res.Outcome {
	case photonics.OutcomePsiPlus:
		outcome = wire.OutcomeStateOne
	case photonics.OutcomePsiMinus:
		outcome = wire.OutcomeStateTwo
	}
	var seq uint16
	if outcome.Success() {
		m.seq++
		seq = m.seq
		m.successes++
		heralded := quantum.PsiPlus
		if outcome == wire.OutcomeStateTwo {
			heralded = quantum.PsiMinus
		}
		pair := nv.NewEntangledPair(res.State, heralded, m.simul.Now())
		if m.depolarize > 0 {
			pair.State.ApplyDepolarizing(0, m.depolarize)
		}
		m.registry.Put(seq, pair)
		if m.metrics != nil {
			m.metrics.Successes.Inc()
		}
	}
	m.trace.Record(m.simul.Now(), obs.KindHerald, m.traceID, int64(outcome), int64(seq))

	// Send REPLY to both nodes, echoing each node's own queue ID first.
	m.sendReply(nv.SideA, outcome, seq, a.gen.QueueID, b.gen.QueueID)
	m.sendReply(nv.SideB, outcome, seq, b.gen.QueueID, a.gen.QueueID)
}

// otherSide returns the opposite end of the link.
func otherSide(side nv.PairSide) nv.PairSide {
	if side == nv.SideA {
		return nv.SideB
	}
	return nv.SideA
}

// findPeerGEN returns a waiting GEN from the given side whose cycle is
// within the detection window of the given cycle, or nil.
func (m *Midpoint) findPeerGEN(side nv.PairSide, cycle uint64) *genPayload {
	waiting := m.waiting[side]
	if p, ok := waiting[cycle]; ok {
		return p
	}
	for d := uint64(1); d < m.windowCycles; d++ {
		if p, ok := waiting[cycle-d]; ok {
			return p
		}
		if p, ok := waiting[cycle+d]; ok {
			return p
		}
	}
	return nil
}

// sendReply transmits a REPLY frame to the node on the given side.
func (m *Midpoint) sendReply(side nv.PairSide, outcome wire.MHPOutcome, seq uint16, own, peer wire.AbsoluteQueueID) {
	payload := m.replyFree.take()
	if payload == nil {
		payload = &replyPayload{pool: &m.replyFree}
		payload.frame = payload.buf[:]
	}
	wire.REPLYFrame{Outcome: outcome, MHPSeq: seq, QueueID: own, PeerQueue: peer}.EncodeTo(&payload.buf)
	ch := m.toA
	if side == nv.SideB {
		ch = m.toB
	}
	ch.Send(payload)
}

// sendError sends an error REPLY to the single node that sent a GEN.
func (m *Midpoint) sendError(side nv.PairSide, queueID wire.AbsoluteQueueID, code wire.MHPOutcome) {
	m.sendReply(side, code, 0, queueID, wire.AbsoluteQueueID{})
}

// sendErrorBoth sends an error REPLY to both nodes, each echoing its own
// submitted queue ID first.
func (m *Midpoint) sendErrorBoth(p1, p2 *genPayload, code wire.MHPOutcome) {
	m.sendReply(p1.side, code, 0, p1.gen.QueueID, p2.gen.QueueID)
	m.sendReply(p2.side, code, 0, p2.gen.QueueID, p1.gen.QueueID)
}

// String summarises midpoint statistics for diagnostics.
func (m *Midpoint) String() string {
	return fmt.Sprintf("midpoint{matched=%d success=%d timeMismatch=%d queueMismatch=%d noOther=%d}",
		m.matched, m.successes, m.timeMismatch, m.queueMismatch, m.noOther)
}

// NewGENPayload builds the channel payload for a GEN frame sent by the named
// node ("A" or "B"); exported for tests that inject frames at the midpoint.
func NewGENPayload(frame []byte, alpha float64, node string, cycle uint64) any {
	side := nv.SideA
	if node == "B" {
		side = nv.SideB
	}
	return &genPayload{frame: frame, alpha: alpha, side: side, cycle: cycle}
}

// NewREPLYPayload builds the channel payload for a REPLY frame; exported for
// tests.
func NewREPLYPayload(frame []byte) any { return &replyPayload{frame: frame} }
