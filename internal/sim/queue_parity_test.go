package sim

import (
	"fmt"
	"testing"
)

// queueParityResult is everything observable about one workload run: the
// execution trace plus the final counter state. Heap and wheel runs of the
// same workload must produce identical values for every field.
type queueParityResult struct {
	trace           []string
	now             Time
	executed        uint64
	pending         int
	compactions     uint64
	canceledPending int
}

func runQueueWorkload(t *testing.T, kind QueueKind, load func(s *Simulator, emit func(string))) queueParityResult {
	t.Helper()
	s := NewWithQueue(1, kind)
	var trace []string
	load(s, func(tag string) {
		trace = append(trace, fmt.Sprintf("t=%d %s", s.Now(), tag))
	})
	return queueParityResult{
		trace:           trace,
		now:             s.Now(),
		executed:        s.Executed(),
		pending:         s.Pending(),
		compactions:     s.Compactions(),
		canceledPending: s.CanceledPending(),
	}
}

// TestQueueDisciplineParity runs adversarial scheduling patterns on the heap
// and the timing wheel and requires byte-identical traces and counters: the
// wheel is a drop-in discipline, not an approximation. Each workload drives
// the run itself (often in RunUntil stages, so clock-advance behaviour at
// drained horizons is compared too).
func TestQueueDisciplineParity(t *testing.T) {
	cases := []struct {
		name string
		load func(s *Simulator, emit func(string))
	}{
		{
			// Many events sharing exact timestamps, scheduled out of order,
			// with same-instant events added from inside the batch.
			name: "same-timestamp bursts",
			load: func(s *Simulator, emit func(string)) {
				base := Time(Millisecond)
				for i := 99; i >= 0; i-- {
					i := i
					at := base + Time(i%4)*Time(Microsecond)
					ScheduleAt(s, at, func() { emit(fmt.Sprintf("burst%d", i)) })
				}
				ScheduleAt(s, base, func() {
					for j := 0; j < 10; j++ {
						j := j
						// Same instant as the running batch: must fire after
						// the whole batch, in scheduling order.
						ScheduleAt(s, base, func() { emit(fmt.Sprintf("nested%d", j)) })
					}
				})
				if err := s.Run(); err != nil {
					t.Fatalf("Run: %v", err)
				}
			},
		},
		{
			// Delays spanning every wheel level and the overflow list, with a
			// dense cluster at a far horizon to force multi-level cascades,
			// and re-seeding from inside far-future handlers.
			name: "far-future overflow cascades",
			load: func(s *Simulator, emit func(string)) {
				for k := 0; k < 63; k += 3 {
					k := k
					Schedule(s, Duration(1)<<k, func() { emit(fmt.Sprintf("exp%d", k)) })
				}
				far := Duration(1) << 41
				for i := 0; i < 50; i++ {
					i := i
					Schedule(s, far+Duration(i)*Microsecond, func() {
						emit(fmt.Sprintf("cluster%d", i))
						if i%7 == 0 {
							Schedule(s, Duration(i+1)*Millisecond, func() { emit(fmt.Sprintf("reseed%d", i)) })
						}
					})
				}
				// Stage the run across horizons so drained-queue clock
				// advancement is exercised under both disciplines.
				for _, horizon := range []Time{Time(far / 2), Time(far * 2), Time(Duration(1) << 62)} {
					if err := s.RunUntil(horizon); err != nil {
						t.Fatalf("RunUntil(%d): %v", horizon, err)
					}
					emit("barrier")
				}
				if err := s.Run(); err != nil {
					t.Fatalf("Run: %v", err)
				}
			},
		},
		{
			// Heavy cancellation pressure in several patterns, enough churn
			// to trip threshold compaction under both disciplines.
			name: "cancel-heavy churn",
			load: func(s *Simulator, emit func(string)) {
				var ids []EventID
				for i := 0; i < 400; i++ {
					i := i
					ids = append(ids, Schedule(s, Duration(i)*Microsecond, func() { emit(fmt.Sprintf("a%d", i)) }))
				}
				for i, id := range ids {
					if i%3 != 0 {
						id.Cancel()
						id.Cancel() // double-cancel must be a no-op
					}
				}
				if err := s.RunFor(100 * Microsecond); err != nil {
					t.Fatalf("RunFor: %v", err)
				}
				emit(fmt.Sprintf("mid pending=%d", s.Pending()))
				// Second wave: cancel from inside handlers, including events
				// later in the same timestamp batch.
				var wave []EventID
				base := s.Now().Add(Millisecond)
				for i := 0; i < 200; i++ {
					i := i
					wave = append(wave, ScheduleAt(s, base, func() {
						emit(fmt.Sprintf("b%d", i))
						if i < len(wave)-1 {
							wave[len(wave)-1-i/2].Cancel()
						}
					}))
				}
				if err := s.Run(); err != nil {
					t.Fatalf("Run: %v", err)
				}
			},
		},
		{
			// Deterministic random soup: delays drawn from the engine RNG
			// across short, mid and far ranges with nested scheduling and
			// random cancels. Identical traces imply the RNG draw order —
			// hence the execution order — never diverged.
			name: "random soup",
			load: func(s *Simulator, emit func(string)) {
				spawned := 0
				var spawn func()
				spawn = func() {
					if spawned >= 3000 {
						return
					}
					spawned++
					n := spawned
					exp := s.RNG().Intn(40)
					id := Schedule(s, Duration(1)<<exp+Duration(s.RNG().Intn(1000)), func() {
						emit(fmt.Sprintf("s%d", n))
						spawn()
						spawn()
					})
					if s.RNG().Float64() < 0.25 {
						id.Cancel()
					}
				}
				for i := 0; i < 8; i++ {
					spawn()
				}
				if err := s.Run(); err != nil {
					t.Fatalf("Run: %v", err)
				}
			},
		},
		{
			// Slice run-ahead: a RunUntil horizon peeks the next event far
			// beyond the clock, so the wheel's cursor runs ahead and every
			// short-delay event scheduled in the slices that follow lands in
			// the ready run, which never drains until the far event fires.
			name: "slice run-ahead",
			load: func(s *Simulator, emit func(string)) {
				ScheduleAt(s, Time(Second), func() { emit("far") })
				n := 0
				var tick func()
				tick = func() {
					n++
					k := n
					Schedule(s, 3*Microsecond, func() { emit(fmt.Sprintf("gen%d", k)) })
					Schedule(s, 500*Microsecond, func() { emit(fmt.Sprintf("hold%d", k)) })
					Schedule(s, 10*Microsecond, tick)
				}
				for slice := 1; slice <= 40; slice++ {
					if slice == 2 {
						tick()
					}
					if err := s.RunUntil(Time(slice) * Time(5*Millisecond)); err != nil {
						t.Fatalf("RunUntil: %v", err)
					}
					emit("slice")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			heap := runQueueWorkload(t, QueueHeap, tc.load)
			wheel := runQueueWorkload(t, QueueWheel, tc.load)
			if len(heap.trace) != len(wheel.trace) {
				t.Fatalf("trace lengths differ: heap %d, wheel %d", len(heap.trace), len(wheel.trace))
			}
			for i := range heap.trace {
				if heap.trace[i] != wheel.trace[i] {
					t.Fatalf("trace entry %d differs:\n  heap:  %s\n  wheel: %s", i, heap.trace[i], wheel.trace[i])
				}
			}
			if heap.now != wheel.now {
				t.Errorf("final Now(): heap %d, wheel %d", heap.now, wheel.now)
			}
			if heap.executed != wheel.executed {
				t.Errorf("Executed(): heap %d, wheel %d", heap.executed, wheel.executed)
			}
			if heap.pending != wheel.pending {
				t.Errorf("Pending(): heap %d, wheel %d", heap.pending, wheel.pending)
			}
			if heap.compactions != wheel.compactions {
				t.Errorf("Compactions(): heap %d, wheel %d", heap.compactions, wheel.compactions)
			}
			if heap.canceledPending != wheel.canceledPending {
				t.Errorf("CanceledPending(): heap %d, wheel %d", heap.canceledPending, wheel.canceledPending)
			}
		})
	}
}

// TestParseQueue pins the accepted spellings and the error path of the
// QueueKind surface.
func TestParseQueue(t *testing.T) {
	ok := map[string]QueueKind{
		"":             QueueWheel,
		"heap":         QueueHeap,
		"wheel":        QueueWheel,
		"timing-wheel": QueueWheel,
		"timingwheel":  QueueWheel,
	}
	for in, want := range ok {
		got, err := ParseQueue(in)
		if err != nil || got != want {
			t.Errorf("ParseQueue(%q) = %v, %v; want %v, nil", in, got, err, want)
		}
	}
	if _, err := ParseQueue("splay"); err == nil {
		t.Error("ParseQueue accepted an unknown discipline")
	}
	if QueueHeap.String() != "heap" || QueueWheel.String() != "wheel" {
		t.Errorf("String(): %q / %q", QueueHeap.String(), QueueWheel.String())
	}
	var zero QueueKind
	if zero != QueueWheel {
		t.Errorf("zero QueueKind is %v, want the wheel default", zero)
	}
}

// TestQueueDefaultsToWheel pins the default discipline of every constructor
// and of the environment fallback, and that the heap stays selectable.
func TestQueueDefaultsToWheel(t *testing.T) {
	if _, ok := New(1).q.(*wheelQueue); !ok {
		t.Error("New does not run on the timing wheel")
	}
	for i, shard := range NewSharded(1, 2).shards {
		if _, ok := shard.q.(*wheelQueue); !ok {
			t.Errorf("NewSharded shard %d does not run on the timing wheel", i)
		}
	}
	if _, ok := NewWithQueue(1, QueueHeap).q.(*heapQueue); !ok {
		t.Error("NewWithQueue(QueueHeap) does not run on the heap")
	}
	t.Setenv(QueueEnvVar, "")
	if k := QueueFromEnv(); k != QueueWheel {
		t.Errorf("QueueFromEnv() with $%s unset = %v, want wheel", QueueEnvVar, k)
	}
	if k, err := ResolveQueue(""); err != nil || k != QueueWheel {
		t.Errorf("ResolveQueue(\"\") = %v, %v; want wheel", k, err)
	}
	t.Setenv(QueueEnvVar, "heap")
	if k := QueueFromEnv(); k != QueueHeap {
		t.Errorf("QueueFromEnv() with $%s=heap = %v, want heap", QueueEnvVar, k)
	}
	if k, err := ResolveQueue(""); err != nil || k != QueueHeap {
		t.Errorf("ResolveQueue(\"\") with $%s=heap = %v, %v; want heap", QueueEnvVar, k, err)
	}
}

// TestWheelReadyRunBoundedAfterRunAhead pins the reclamation of the ready
// run's consumed prefix: after a RunUntil horizon lets the cursor run far
// ahead of the clock, a long stream of short-delay events flows through the
// ready run without it ever draining, and its storage must stay proportional
// to the live population instead of growing with every event ever inserted.
func TestWheelReadyRunBoundedAfterRunAhead(t *testing.T) {
	s := NewWithQueue(1, QueueWheel)
	w := s.q.(*wheelQueue)
	Schedule(s, Second, func() {})
	if err := s.RunUntil(Time(Millisecond)); err != nil {
		t.Fatal(err)
	}
	if w.next <= int64(s.Now())>>wheelGranuleBits {
		t.Fatalf("cursor did not run ahead of the clock (cursor granule %d, now %v)", w.next, s.Now())
	}
	fired := 0
	var tick func()
	tick = func() {
		fired++
		Schedule(s, 3*Microsecond, func() {})
		Schedule(s, 10*Microsecond, tick)
	}
	tick()
	maxCap := 0
	for slice := 2; slice <= 100; slice++ {
		if err := s.RunUntil(Time(slice) * Time(Millisecond)); err != nil {
			t.Fatal(err)
		}
		if c := cap(w.ready); c > maxCap {
			maxCap = c
		}
	}
	if fired < 9000 {
		t.Fatalf("only %d ticks fired", fired)
	}
	if maxCap > 64 {
		t.Fatalf("ready run grew to capacity %d over %d short-delay events; want it bounded by the live population", maxCap, 2*fired)
	}
}
