package pram

import "testing"

// The tests below drive full runs of strideAlg (scheduler_test.go), a
// terminating checkpointing writer whose processors are Resettable
// (testProc), so a pooled Runner can recycle them across runs.

// TestRunnerFullRunAllocationFree extends the steady-state-tick contract
// to whole runs: once a Runner is warm, a complete Machine.Run — reset,
// setup, every tick, termination — allocates nothing. This is what makes
// sweep grids (thousands of runs) allocation-free, not just tick loops.
func TestRunnerFullRunAllocationFree(t *testing.T) {
	const n, p = 256, 64

	t.Run("failure-free", func(t *testing.T) {
		var r Runner
		defer r.Close()
		alg := strideAlg()
		adv := &funcAdversary{name: "none"}
		run := func() {
			if _, err := r.Run(Config{N: n, P: p}, alg, adv); err != nil {
				t.Fatalf("Run: %v", err)
			}
		}
		run() // warm the pooled machine
		if avg := testing.AllocsPerRun(20, run); avg != 0 {
			t.Errorf("pooled full run allocates %.2f objects/op, want 0", avg)
		}
	})

	// With failures and restarts the machine must still not allocate:
	// dying processors are stashed (retire) and restarts reset them in
	// place (reviveProcessor). The adversary reuses its decision map and
	// restart slice; the machine never mutates either.
	t.Run("fail-restart", func(t *testing.T) {
		var r Runner
		defer r.Close()
		alg := strideAlg()
		failures := map[int]FailPoint{1: FailAfterReads}
		restarts := []int{1}
		adv := &funcAdversary{
			name: "blinker",
			f: func(v *View) Decision {
				switch v.Tick % 4 {
				case 1:
					failures[1] = FailAfterReads
					return Decision{Failures: failures}
				case 3:
					return Decision{Restarts: restarts}
				}
				return Decision{}
			},
		}
		run := func() {
			got, err := r.Run(Config{N: n, P: p}, alg, adv)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if got.Failures == 0 || got.Restarts == 0 {
				t.Fatalf("adversary inert: %+v", got)
			}
		}
		run()
		if avg := testing.AllocsPerRun(20, run); avg != 0 {
			t.Errorf("pooled fail-restart run allocates %.2f objects/op, want 0", avg)
		}
	})
}

// TestRunnerReusesMachine checks the pooling contract directly: the same
// *Machine is handed back across runs, and Close drops it.
func TestRunnerReusesMachine(t *testing.T) {
	var r Runner
	alg := strideAlg()
	adv := &funcAdversary{name: "none"}
	m1, err := r.Machine(Config{N: 16, P: 4}, alg, adv)
	if err != nil {
		t.Fatalf("Machine: %v", err)
	}
	if _, err := m1.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	m2, err := r.Machine(Config{N: 16, P: 4}, alg, adv)
	if err != nil {
		t.Fatalf("Machine (2nd): %v", err)
	}
	if m1 != m2 {
		t.Error("Runner built a new machine instead of resetting the pooled one")
	}
	r.Close()
	m3, err := r.Machine(Config{N: 16, P: 4}, alg, adv)
	if err != nil {
		t.Fatalf("Machine (post-Close): %v", err)
	}
	if m3 == m1 {
		t.Error("Runner reused a closed machine")
	}
	r.Close()
}

// TestMachineResetRejects covers Reset's error paths: invalid shapes and
// use after Close.
func TestMachineResetRejects(t *testing.T) {
	alg := strideAlg()
	adv := &funcAdversary{name: "none"}
	m, err := New(Config{N: 16, P: 4}, alg, adv)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := m.Reset(Config{N: 0, P: 4}, alg, adv); err == nil {
		t.Error("Reset accepted N=0")
	}
	// The failed Reset must not have broken the machine.
	if err := m.Reset(Config{N: 16, P: 4}, alg, adv); err != nil {
		t.Fatalf("Reset after failed Reset: %v", err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("Run after Reset: %v", err)
	}
	m.Close()
	if err := m.Reset(Config{N: 16, P: 4}, alg, adv); err == nil {
		t.Error("Reset accepted a closed machine")
	}
}

// TestResetAcrossAlgorithmChange makes sure instance gating is what
// protects processor recycling: switching the Algorithm value between
// runs must rebuild processors via NewProcessor, and switching back must
// not resurrect processors of the wrong vintage (the clear-on-change
// path), all while producing correct runs.
func TestResetAcrossAlgorithmChange(t *testing.T) {
	const n, p = 64, 16
	var r Runner
	defer r.Close()
	a := strideAlg()
	b := strideAlg()
	adv := &funcAdversary{name: "none"}
	for i, alg := range []*testAlg{a, b, a, b, a} {
		m, err := r.Machine(Config{N: n, P: p}, alg, adv)
		if err != nil {
			t.Fatalf("run %d: Machine: %v", i, err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatalf("run %d: Run: %v", i, err)
		}
		for addr := 0; addr < n; addr++ {
			if m.Memory().Load(addr) == 0 {
				t.Fatalf("run %d: cell %d unset", i, addr)
			}
		}
	}
}
