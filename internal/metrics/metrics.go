// Package metrics implements the performance metrics of Section 4.2 and the
// estimators used throughout the evaluation: throughput, the three latency
// flavours (per request, per pair, scaled), fidelity and QBER statistics,
// queue length tracking, fairness comparisons between request origins and
// the relative-difference measure of the robustness study.
package metrics

import (
	"math"
	"sort"

	"repro/internal/sim"
)

// Series accumulates scalar observations and exposes summary statistics.
type Series struct {
	values []float64
	sum    float64
	sumSq  float64
	sorted []float64 // lazily sorted copy for quantiles; nil when stale
}

// seriesInitialCap is the first allocation of a series. A one-element
// backing array (8 B) would be a tiny allocation, packed into a per-P block
// whose byte cost depends on which processor the goroutine happens to run
// on; starting at four keeps the bench harness's bytes-per-attempt figure a
// deterministic function of the run.
const seriesInitialCap = 4

// Add records one observation.
func (s *Series) Add(v float64) {
	if s.values == nil {
		s.values = make([]float64, 0, seriesInitialCap)
	}
	s.values = append(s.values, v)
	s.sum += v
	s.sumSq += v * v
	s.sorted = nil
}

// Count returns the number of observations.
func (s *Series) Count() int { return len(s.values) }

// Mean returns the sample mean (0 when empty).
func (s *Series) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.sum / float64(len(s.values))
}

// Variance returns the unbiased sample variance (0 for fewer than two
// observations).
func (s *Series) Variance() float64 {
	n := float64(len(s.values))
	if n < 2 {
		return 0
	}
	mean := s.Mean()
	v := (s.sumSq - n*mean*mean) / (n - 1)
	if v < 0 {
		return 0
	}
	return v
}

// StdDev returns the sample standard deviation.
func (s *Series) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean (the parenthesised values of
// Tables 1, 3 and 4).
func (s *Series) StdErr() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(len(s.values)))
}

// Min returns the smallest observation (0 when empty).
func (s *Series) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	m := s.values[0]
	for _, v := range s.values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest observation (0 when empty).
func (s *Series) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	m := s.values[0]
	for _, v := range s.values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// sortedValues returns the observations in ascending order, sorting at most
// once per batch of Adds: the sorted copy is cached and invalidated by Add,
// so a sweep of quantile queries (p50/p90/p99 over the same series) costs one
// sort instead of one per query.
func (s *Series) sortedValues() []float64 {
	if s.sorted == nil && len(s.values) > 0 {
		s.sorted = append(make([]float64, 0, len(s.values)), s.values...)
		sort.Float64s(s.sorted)
	}
	return s.sorted
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using nearest-rank on
// the sorted observations.
func (s *Series) Percentile(p float64) float64 {
	sorted := s.sortedValues()
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1); Quantile(q) is exactly
// Percentile(100q).
func (s *Series) Quantile(q float64) float64 { return s.Percentile(q * 100) }

// Values returns a copy of the raw observations.
func (s *Series) Values() []float64 { return append([]float64(nil), s.values...) }

// SafeRate divides a count by a duration in seconds, returning 0 for empty,
// zero or non-finite intervals instead of NaN/Inf. Shared by the per-link
// and per-path throughput summaries.
func SafeRate(count, seconds float64) float64 {
	if seconds <= 0 || math.IsNaN(seconds) || math.IsInf(seconds, 0) {
		return 0
	}
	return count / seconds
}

// RelativeDifference implements footnote 2 of the paper:
// |m1 − m2| / max(|m1|, |m2|), with 0 when both are zero.
func RelativeDifference(m1, m2 float64) float64 {
	denom := math.Max(math.Abs(m1), math.Abs(m2))
	if denom == 0 {
		return 0
	}
	return math.Abs(m1-m2) / denom
}

// QBERCounter accumulates basis-resolved error counts from measure-directly
// outcomes and test rounds, and converts them into a fidelity estimate via
// Eq. (16).
type QBERCounter struct {
	errors [3]int // indexed by basis: Z, X, Y
	totals [3]int
	// correlated[b] is true when ideal outcomes in basis b should be equal
	// for the target Bell state (Ψ+ by default).
	correlated [3]bool
}

// NewQBERCounterPsiPlus returns a counter with the correlation pattern of
// |Ψ+⟩: correlated in X and Y, anti-correlated in Z.
func NewQBERCounterPsiPlus() *QBERCounter {
	return &QBERCounter{correlated: [3]bool{false, true, true}}
}

// Record adds one joint measurement outcome in the given basis
// (0=Z, 1=X, 2=Y).
func (q *QBERCounter) Record(basis int, outcomeA, outcomeB int) {
	if basis < 0 || basis > 2 {
		panic("metrics: basis out of range")
	}
	q.totals[basis]++
	equal := outcomeA == outcomeB
	if equal != q.correlated[basis] {
		q.errors[basis]++
	}
}

// Rates returns the per-basis error rates (Z, X, Y); bases with no samples
// report 0.
func (q *QBERCounter) Rates() (z, x, y float64) {
	rate := func(i int) float64 {
		if q.totals[i] == 0 {
			return 0
		}
		return float64(q.errors[i]) / float64(q.totals[i])
	}
	return rate(0), rate(1), rate(2)
}

// Samples returns the total number of recorded outcomes.
func (q *QBERCounter) Samples() int { return q.totals[0] + q.totals[1] + q.totals[2] }

// FidelityEstimate converts the accumulated QBERs into a fidelity estimate
// via Eq. (16): F = 1 − (QBERX + QBERY + QBERZ)/2.
func (q *QBERCounter) FidelityEstimate() float64 {
	z, x, y := q.Rates()
	f := 1 - (x+y+z)/2
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// RequestRecord tracks the lifecycle of one CREATE request for latency
// accounting.
type RequestRecord struct {
	CreateID    uint64
	Priority    int
	Origin      string
	SubmittedAt sim.Time
	CompletedAt sim.Time
	NumPairs    int
	PairsDone   int
	Failed      bool
	ErrorCode   string
}

// Collector aggregates every metric of one simulation run.
type Collector struct {
	start sim.Time

	// Per-priority metrics, keyed by the request priority (0=NL, 1=CK, 2=MD
	// by the paper's convention of priority 1..3).
	fidelity       map[int]*Series
	requestLatency map[int]*Series
	scaledLatency  map[int]*Series
	pairLatency    map[int]*Series
	pairsDelivered map[int]int
	okCount        map[int]int
	expireCount    int
	errCount       map[string]int

	// Per-origin pair counts for the fairness analysis.
	pairsByOrigin    map[string]int
	fidelityByOrigin map[string]*Series
	latencyByOrigin  map[string]*Series

	qber map[int]*QBERCounter

	queueLengthSamples *Series

	requests map[uint64]*RequestRecord

	end sim.Time
}

// NewCollector creates an empty collector starting at the given simulated
// time.
func NewCollector(start sim.Time) *Collector {
	return &Collector{
		start:              start,
		fidelity:           make(map[int]*Series),
		requestLatency:     make(map[int]*Series),
		scaledLatency:      make(map[int]*Series),
		pairLatency:        make(map[int]*Series),
		pairsDelivered:     make(map[int]int),
		okCount:            make(map[int]int),
		errCount:           make(map[string]int),
		pairsByOrigin:      make(map[string]int),
		fidelityByOrigin:   make(map[string]*Series),
		latencyByOrigin:    make(map[string]*Series),
		qber:               make(map[int]*QBERCounter),
		queueLengthSamples: &Series{},
		requests:           make(map[uint64]*RequestRecord),
	}
}

func seriesFor(m map[int]*Series, k int) *Series {
	s, ok := m[k]
	if !ok {
		s = &Series{}
		m[k] = s
	}
	return s
}

func seriesForString(m map[string]*Series, k string) *Series {
	s, ok := m[k]
	if !ok {
		s = &Series{}
		m[k] = s
	}
	return s
}

// RequestSubmitted records that a CREATE was accepted into the queue.
func (c *Collector) RequestSubmitted(id uint64, priority int, origin string, numPairs int, at sim.Time) {
	c.requests[id] = &RequestRecord{
		CreateID:    id,
		Priority:    priority,
		Origin:      origin,
		SubmittedAt: at,
		NumPairs:    numPairs,
	}
}

// PairDelivered records one OK: a pair delivered for a request, with its
// fidelity estimate (or measured QBER-based goodness for MD).
func (c *Collector) PairDelivered(id uint64, priority int, origin string, fidelity float64, at sim.Time) {
	seriesFor(c.fidelity, priority).Add(fidelity)
	c.pairsDelivered[priority]++
	c.okCount[priority]++
	c.pairsByOrigin[origin]++
	seriesForString(c.fidelityByOrigin, origin).Add(fidelity)
	if r, ok := c.requests[id]; ok {
		r.PairsDone++
		seriesFor(c.pairLatency, priority).Add(at.Sub(r.SubmittedAt).Seconds())
	}
}

// RequestCompleted records that every pair of a request has been delivered.
func (c *Collector) RequestCompleted(id uint64, at sim.Time) {
	r, ok := c.requests[id]
	if !ok {
		return
	}
	r.CompletedAt = at
	latency := at.Sub(r.SubmittedAt).Seconds()
	seriesFor(c.requestLatency, r.Priority).Add(latency)
	n := r.NumPairs
	if n < 1 {
		n = 1
	}
	seriesFor(c.scaledLatency, r.Priority).Add(latency / float64(n))
	seriesForString(c.latencyByOrigin, r.Origin).Add(latency)
}

// RequestFailed records a request that ended in an error.
func (c *Collector) RequestFailed(id uint64, code string, at sim.Time) {
	c.errCount[code]++
	if r, ok := c.requests[id]; ok {
		r.Failed = true
		r.ErrorCode = code
		r.CompletedAt = at
	}
}

// ExpireIssued records an EXPIRE notification.
func (c *Collector) ExpireIssued() { c.expireCount++ }

// RecordQBER adds a measure-directly correlation outcome for the given
// priority class.
func (c *Collector) RecordQBER(priority int, basis int, outcomeA, outcomeB int) {
	q, ok := c.qber[priority]
	if !ok {
		q = NewQBERCounterPsiPlus()
		c.qber[priority] = q
	}
	q.Record(basis, outcomeA, outcomeB)
}

// SampleQueueLength records an instantaneous distributed-queue length.
func (c *Collector) SampleQueueLength(length int) { c.queueLengthSamples.Add(float64(length)) }

// Finish marks the end of the measured interval.
func (c *Collector) Finish(at sim.Time) { c.end = at }

// DurationSeconds returns the measured interval length.
func (c *Collector) DurationSeconds() float64 {
	if c.end <= c.start {
		return 0
	}
	return c.end.Sub(c.start).Seconds()
}

// Throughput returns delivered pairs per second for a priority class.
func (c *Collector) Throughput(priority int) float64 {
	d := c.DurationSeconds()
	if d == 0 {
		return 0
	}
	return float64(c.pairsDelivered[priority]) / d
}

// TotalThroughput returns delivered pairs per second across all priorities.
func (c *Collector) TotalThroughput() float64 {
	d := c.DurationSeconds()
	if d == 0 {
		return 0
	}
	total := 0
	for _, n := range c.pairsDelivered {
		total += n
	}
	return float64(total) / d
}

// Fidelity returns the fidelity series of a priority class.
func (c *Collector) Fidelity(priority int) *Series { return seriesFor(c.fidelity, priority) }

// RequestLatency returns the request latency series of a priority class.
func (c *Collector) RequestLatency(priority int) *Series {
	return seriesFor(c.requestLatency, priority)
}

// ScaledLatency returns the scaled latency series (latency divided by the
// number of requested pairs) of a priority class.
func (c *Collector) ScaledLatency(priority int) *Series { return seriesFor(c.scaledLatency, priority) }

// PairLatency returns the per-pair latency series of a priority class.
func (c *Collector) PairLatency(priority int) *Series { return seriesFor(c.pairLatency, priority) }

// OKCount returns how many OKs were issued for a priority class.
func (c *Collector) OKCount(priority int) int { return c.okCount[priority] }

// ExpireCount returns how many EXPIRE notifications were issued.
func (c *Collector) ExpireCount() int { return c.expireCount }

// ErrorCount returns how many errors of the given code were issued.
func (c *Collector) ErrorCount(code string) int { return c.errCount[code] }

// QBER returns the QBER counter of a priority class (nil when no MD
// outcomes were recorded).
func (c *Collector) QBER(priority int) *QBERCounter { return c.qber[priority] }

// QueueLength returns the sampled queue length series.
func (c *Collector) QueueLength() *Series { return c.queueLengthSamples }

// PairsByOrigin returns the number of pairs delivered to requests that
// originated at each node.
func (c *Collector) PairsByOrigin() map[string]int {
	out := make(map[string]int, len(c.pairsByOrigin))
	for k, v := range c.pairsByOrigin {
		out[k] = v
	}
	return out
}

// FairnessReport compares a metric between two origins using the relative
// difference of footnote 2.
type FairnessReport struct {
	FidelityRelDiff   float64
	LatencyRelDiff    float64
	ThroughputRelDiff float64
	OKCountRelDiff    float64
}

// Fairness compares requests originating at originA vs originB.
func (c *Collector) Fairness(originA, originB string) FairnessReport {
	d := c.DurationSeconds()
	thA, thB := 0.0, 0.0
	if d > 0 {
		thA = float64(c.pairsByOrigin[originA]) / d
		thB = float64(c.pairsByOrigin[originB]) / d
	}
	return FairnessReport{
		FidelityRelDiff:   RelativeDifference(seriesForString(c.fidelityByOrigin, originA).Mean(), seriesForString(c.fidelityByOrigin, originB).Mean()),
		LatencyRelDiff:    RelativeDifference(seriesForString(c.latencyByOrigin, originA).Mean(), seriesForString(c.latencyByOrigin, originB).Mean()),
		ThroughputRelDiff: RelativeDifference(thA, thB),
		OKCountRelDiff:    RelativeDifference(float64(c.pairsByOrigin[originA]), float64(c.pairsByOrigin[originB])),
	}
}

// OutstandingRequests returns how many submitted requests have neither
// completed nor failed.
func (c *Collector) OutstandingRequests() int {
	n := 0
	for _, r := range c.requests {
		if r.CompletedAt == 0 && !r.Failed {
			n++
		}
	}
	return n
}
