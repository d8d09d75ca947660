package experiments

import (
	"fmt"
	"testing"

	"repro/internal/nv"
	"repro/internal/sim"
)

// TestDeriveSeedUniqueness checks that the splitmix64-based derivation gives
// every trial its own RNG stream, including the cross-coordinate collisions
// the old additive scheme (base + priority + load*100) suffered from.
func TestDeriveSeedUniqueness(t *testing.T) {
	seen := make(map[int64]Trial)
	add := func(tr Trial) {
		t.Helper()
		seed := tr.DeriveSeed(1)
		if prev, dup := seen[seed]; dup {
			t.Fatalf("seed collision between %+v and %+v", prev, tr)
		}
		seen[seed] = tr
	}
	for _, runner := range []string{"fig6a", "fig6bc", "table1", "mixed"} {
		for _, scenario := range []nv.ScenarioID{nv.ScenarioLab, nv.ScenarioQL2020} {
			for priority := 1; priority <= 3; priority++ {
				for _, load := range []float64{0.3, 0.7, 0.99, 1.2, 1.5} {
					add(Trial{Runner: runner, Scenario: scenario, Priority: priority, Load: load})
				}
			}
		}
	}
	// The additive scheme mapped (priority+1, load) and (priority, load+0.01)
	// to the same seed; the mixed derivation must not.
	a := Trial{Runner: "fig6a", Scenario: nv.ScenarioLab, Priority: 1, Load: 2.0}
	b := Trial{Runner: "fig6a", Scenario: nv.ScenarioLab, Priority: 2, Load: 1.99}
	if a.DeriveSeed(7) == b.DeriveSeed(7) {
		t.Fatal("trials that collided under additive derivation still share a seed")
	}
	// Distinct runners sweeping identical coordinates must not share streams.
	c := Trial{Runner: "fig6bc", Scenario: nv.ScenarioLab, Priority: 1, Load: 2.0}
	if a.DeriveSeed(7) == c.DeriveSeed(7) {
		t.Fatal("distinct runners share a seed for identical coordinates")
	}
	// The base seed must still matter.
	if a.DeriveSeed(1) == a.DeriveSeed(2) {
		t.Fatal("base seed does not affect the derived seed")
	}
}

// TestRunTrialsOrdering checks that results come back in trial order no
// matter how many workers raced over them.
func TestRunTrialsOrdering(t *testing.T) {
	const n = 64
	trials := make([]Trial, n)
	for i := range trials {
		trials[i] = Trial{Aux: float64(i)}
	}
	for _, parallelism := range []int{1, 3, 16, n + 5} {
		opt := Options{Parallelism: parallelism}
		got := runTrials(opt, trials, func(tr Trial) int { return int(tr.Aux) })
		if len(got) != n {
			t.Fatalf("parallelism %d: got %d results, want %d", parallelism, len(got), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("parallelism %d: result %d out of order: %d", parallelism, i, v)
			}
		}
	}
}

// TestRunTrialsEmpty ensures the pool copes with zero trials.
func TestRunTrialsEmpty(t *testing.T) {
	got := runTrials(Options{Parallelism: 8}, nil, func(Trial) int { return 1 })
	if len(got) != 0 {
		t.Fatalf("expected no results, got %d", len(got))
	}
}

// renderAll runs the named runners and concatenates every rendered table.
func renderAll(opt Options, names ...string) string {
	out := ""
	for _, name := range names {
		r, ok := ByName(name)
		if !ok {
			panic(fmt.Sprintf("unknown runner %q", name))
		}
		for _, table := range r.Run(opt) {
			out += table.String()
		}
	}
	return out
}

// TestParallelDeterminism is the engine's core guarantee: tables are
// byte-identical whether trials run sequentially or fan out across eight
// workers, because every trial's RNG stream depends only on its coordinates.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol-level experiment in short mode")
	}
	opt := QuickOptions()
	opt.SimulatedSeconds = 0.5
	names := []string{"fig8", "fig9", "fig6a", "table1", "netchain", "netload"}

	opt.Parallelism = 1
	sequential := renderAll(opt, names...)
	opt.Parallelism = 8
	parallel := renderAll(opt, names...)

	if sequential != parallel {
		t.Fatalf("tables differ between parallelism 1 and 8:\n--- sequential ---\n%s\n--- parallel ---\n%s", sequential, parallel)
	}
}

// TestQueueDisciplineParity renders the quick single-link protocol runners on
// the default timing wheel and on the reference binary heap: the paper tables
// must be byte-identical under either event queue.
func TestQueueDisciplineParity(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol-level experiment in short mode")
	}
	opt := QuickOptions()
	names := []string{"fig6a", "table1", "table5", "metrics"}

	t.Setenv(sim.QueueEnvVar, "wheel")
	wheel := renderAll(opt, names...)
	t.Setenv(sim.QueueEnvVar, "heap")
	heap := renderAll(opt, names...)

	if wheel != heap {
		t.Fatalf("tables differ between the wheel and heap queues:\n--- wheel ---\n%s\n--- heap ---\n%s", wheel, heap)
	}
}

// TestByNameCoversAllRunners walks the registry and resolves every runner
// through ByName, so renames or dropped registrations fail loudly.
func TestByNameCoversAllRunners(t *testing.T) {
	all := All()
	if len(all) == 0 {
		t.Fatal("no runners registered")
	}
	seen := make(map[string]bool)
	for _, r := range all {
		if seen[r.Name] {
			t.Errorf("duplicate runner name %q", r.Name)
		}
		seen[r.Name] = true
		got, ok := ByName(r.Name)
		if !ok {
			t.Errorf("ByName(%q) failed for a registered runner", r.Name)
			continue
		}
		if got.Name != r.Name || got.Run == nil || got.Description == "" {
			t.Errorf("ByName(%q) returned an incomplete runner: %+v", r.Name, got)
		}
	}
}
