package sim

import (
	"container/heap"
	"fmt"
	"os"
)

// eventQueue is the pending-event store behind a Simulator: the pluggable
// queue discipline. Two implementations exist — heapQueue (binary heap, the
// exact-semantics reference) and wheelQueue (hierarchical timing wheel, the
// fast path for the short regular delays that dominate the workload).
//
// The contract both honour, which is what keeps runs byte-identical across
// disciplines:
//
//   - peek returns the resident event with the smallest (at, seq), including
//     events that have been cancelled but not yet removed (lazy removal is
//     part of the Simulator's observable counter semantics);
//   - pop removes and returns exactly the event peek would return;
//   - compact removes every cancelled resident event, recycling each through
//     the supplied callback, and reports how many it removed;
//   - len counts every resident event, cancelled or not.
type eventQueue interface {
	push(ev *event)
	peek() *event
	pop() *event
	len() int
	compact(recycle func(*event)) int
}

// QueueKind selects the event-queue discipline used by a Simulator. The zero
// value is QueueWheel, so every configuration that leaves the queue unset
// runs on the timing wheel; QueueHeap stays selectable by name as the
// exact-semantics reference. Execution order and every deterministic counter
// are identical under either discipline.
type QueueKind int

// The registered queue disciplines.
const (
	// QueueWheel is the hierarchical timing wheel, the default: O(1)
	// amortised insert/cancel with power-of-two bucket widths and cascading
	// overflow levels. Execution order and every deterministic counter are
	// identical to the heap; only the wall-clock cost differs.
	QueueWheel QueueKind = iota
	// QueueHeap is the binary min-heap: O(log n) insert/pop, the
	// exact-semantics reference discipline.
	QueueHeap
)

// String renders the queue kind's canonical CLI/JSON name.
func (k QueueKind) String() string {
	if k == QueueHeap {
		return "heap"
	}
	return "wheel"
}

// ParseQueue converts a CLI/JSON name into a QueueKind; the empty name is
// the default, the timing wheel.
func ParseQueue(s string) (QueueKind, error) {
	switch s {
	case "", "wheel", "timing-wheel", "timingwheel":
		return QueueWheel, nil
	case "heap":
		return QueueHeap, nil
	default:
		return QueueWheel, fmt.Errorf("sim: unknown event queue %q (want wheel or heap)", s)
	}
}

// QueueEnvVar is the environment variable consulted by QueueFromEnv; CI uses
// it to run the whole test suite once per queue discipline.
const QueueEnvVar = "REPRO_QUEUE"

// QueueFromEnv returns the queue discipline named by $REPRO_QUEUE, or
// QueueWheel when the variable is unset. Default configurations (netsim,
// bench) consult it so a test matrix can flip every simulator onto the
// reference heap without touching call sites. An unrecognised value panics:
// the variable exists so CI can claim queue coverage, and a typo that
// silently fell back to the wheel would report green heap coverage that
// never ran.
func QueueFromEnv() QueueKind {
	k, err := ParseQueue(os.Getenv(QueueEnvVar))
	if err != nil {
		panic(fmt.Sprintf("sim: $%s: %v", QueueEnvVar, err))
	}
	return k
}

// ResolveQueue turns a CLI flag value into a QueueKind: an empty flag defers
// to $REPRO_QUEUE (then the wheel), anything else must parse. Shared by every
// CLI exposing a -queue flag; unlike QueueFromEnv it reports a bad
// environment value as an error so CLIs can exit cleanly.
func ResolveQueue(flagValue string) (QueueKind, error) {
	if flagValue == "" {
		flagValue = os.Getenv(QueueEnvVar)
	}
	return ParseQueue(flagValue)
}

// newQueue builds an empty queue of the given discipline.
func newQueue(k QueueKind) eventQueue {
	if k == QueueHeap {
		return &heapQueue{}
	}
	return newWheelQueue()
}

// heapStore is a min-heap of events ordered by (time, sequence), the
// container/heap backing of heapQueue.
type heapStore []*event

func (q heapStore) Len() int { return len(q) }
func (q heapStore) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q heapStore) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *heapStore) Push(x any) {
	ev := x.(*event)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *heapStore) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// heapQueue is the reference discipline: a binary min-heap over (at, seq).
type heapQueue struct {
	h heapStore
}

func (q *heapQueue) push(ev *event) { heap.Push(&q.h, ev) }

func (q *heapQueue) peek() *event {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

func (q *heapQueue) pop() *event {
	if len(q.h) == 0 {
		return nil
	}
	return heap.Pop(&q.h).(*event)
}

func (q *heapQueue) len() int { return len(q.h) }

// compact rebuilds the heap without its cancelled events. Pop order is
// unaffected: events are totally ordered by (time, sequence), so any heap
// over the same live set pops identically.
func (q *heapQueue) compact(recycle func(*event)) int {
	removed := 0
	live := q.h[:0]
	for _, ev := range q.h {
		if ev.canceled {
			recycle(ev)
			removed++
			continue
		}
		ev.index = len(live)
		live = append(live, ev)
	}
	// Clear the tail so recycled events are not retained by the backing array.
	for i := len(live); i < len(q.h); i++ {
		q.h[i] = nil
	}
	q.h = live
	heap.Init(&q.h)
	return removed
}
