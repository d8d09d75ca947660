package bench

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/nv"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestUnsetQueueResolvesToWheel pins the default event-queue discipline on
// every configuration surface that can leave the queue unset — the netsim
// default config, a compiled scenario spec without an engine queue, and the
// bench options — and that the heap stays selectable by name and through
// $REPRO_QUEUE.
func TestUnsetQueueResolvesToWheel(t *testing.T) {
	compiledQueue := func(t *testing.T, path, queue string) sim.QueueKind {
		t.Helper()
		sp, err := scenario.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if sp.Engine != nil {
			sp.Engine.Queue = queue
		} else if queue != "" {
			sp.Engine = &scenario.Engine{Queue: queue}
		}
		c, err := sp.Compile()
		if err != nil {
			t.Fatal(err)
		}
		return c.Config.Queue
	}
	const spec = "../../scenarios/chain16-bench.json"

	t.Setenv(sim.QueueEnvVar, "")
	if q := netsim.DefaultConfig(netsim.Chain(2), nv.ScenarioLab).Queue; q != sim.QueueWheel {
		t.Errorf("netsim.DefaultConfig queue = %v, want wheel", q)
	}
	if q := compiledQueue(t, spec, ""); q != sim.QueueWheel {
		t.Errorf("compiled spec without a queue = %v, want wheel", q)
	}
	if q := compiledQueue(t, spec, "heap"); q != sim.QueueHeap {
		t.Errorf("compiled spec with queue heap = %v, want heap", q)
	}
	var opts Options
	if opts.Queue != sim.QueueWheel {
		t.Errorf("zero bench.Options queue = %v, want wheel", opts.Queue)
	}

	// The default is recorded as an absent queue field (so the committed
	// baselines stay comparable); the heap is recorded by name.
	sc, _ := ScenarioByName("single-link")
	quick := Options{SimSeconds: 0.01, Trials: 1, Seed: 1, Parallelism: 1}
	res, err := Run(sc, quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Queue != "" {
		t.Errorf("default run records queue %q, want none", res.Config.Queue)
	}
	quick.Queue = sim.QueueHeap
	if res, err = Run(sc, quick); err != nil {
		t.Fatal(err)
	}
	if res.Config.Queue != "heap" {
		t.Errorf("heap run records queue %q, want heap", res.Config.Queue)
	}

	t.Setenv(sim.QueueEnvVar, "heap")
	if q := netsim.DefaultConfig(netsim.Chain(2), nv.ScenarioLab).Queue; q != sim.QueueHeap {
		t.Errorf("netsim.DefaultConfig queue with $%s=heap = %v, want heap", sim.QueueEnvVar, q)
	}
	if q := compiledQueue(t, spec, ""); q != sim.QueueHeap {
		t.Errorf("compiled spec without a queue under $%s=heap = %v, want heap", sim.QueueEnvVar, q)
	}
}
