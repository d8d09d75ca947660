package main

// The host's speed drifts: on a shared 2-vCPU VM the same run of the same
// binary took about 40% longer in one minute than in another, far more than
// medians within one run can smooth. So after set-up and after every run
// slice the benchmark times a fixed piece of its own work, shaped like the
// simulator's hot path, and scales the wall time just measured by refNominal
// over the reference's time. The reference never changes with the program,
// so a faster program still shows as a higher rate, while a slower host
// slows both and cancels out.

// refNominal is the reference's wall time on the host the times are scaled
// to, in seconds. It is only a unit: about the reference's time on an idle
// 2-vCPU VM.
const refNominal = 0.02

// refOps is the number of heap operations one reference runs.
const refOps = 200_000

// refSize is the number of entries the reference's heap and map hold.
const refSize = 4096

// refItem is one entry of the reference heap.
type refItem struct {
	at  uint64
	seq uint32
	obj *refObj
}

type refObj struct{ a, b, c, d uint64 }

// The reference's storage is allocated once and reused, so its time does
// not depend on when the garbage collector runs.
var (
	refHeap = make([]refItem, 0, refSize)
	refMap  = make(map[uint32]uint32, refSize)
	refObjs = make([]refObj, refSize)
	refSink uint64
)

func refLess(a, b refItem) bool { return a.at < b.at || a.at == b.at && a.seq < b.seq }

// reference runs a fixed amount of work: a binary min-heap of timestamped
// entries filled to refSize and then popped and refilled, with a map keyed
// by sequence number and a pointer load per entry, the same kinds of
// operation the event queue and protocol tables of the simulator do.
func reference() {
	h, m := refHeap[:0], refMap
	clear(m)
	x := uint64(0x9e3779b97f4a7c15)
	var now, sum uint64
	for i := 0; i < refOps; i++ {
		if len(h) < refSize {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			it := refItem{at: now + x%1_000_000, seq: uint32(i), obj: &refObjs[i%len(refObjs)]}
			it.obj.a = uint64(i)
			h = append(h, it)
			for j := len(h) - 1; j > 0; {
				p := (j - 1) / 2
				if refLess(h[p], h[j]) {
					break
				}
				h[p], h[j] = h[j], h[p]
				j = p
			}
			m[it.seq] = uint32(it.at)
			continue
		}
		top := h[0]
		now = top.at
		sum += top.obj.a + uint64(m[top.seq])
		delete(m, top.seq)
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		for j := 0; ; {
			l, r, s := 2*j+1, 2*j+2, j
			if l < len(h) && refLess(h[l], h[s]) {
				s = l
			}
			if r < len(h) && refLess(h[r], h[s]) {
				s = r
			}
			if s == j {
				break
			}
			h[s], h[j] = h[j], h[s]
			j = s
		}
	}
	refSink += sum
}
