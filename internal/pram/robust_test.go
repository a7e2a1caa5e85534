package pram

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

// spinAlg never finishes: every processor reads cell 0 each tick. It
// gives fault-injection tests a run that is still in flight at any
// chosen tick.
func spinAlg() *testAlg {
	return &testAlg{
		name: "spin",
		cycle: func(pid int, ctx *Ctx) Status {
			ctx.Read(0)
			return Continue
		},
	}
}

// killAllFrom builds an adversary that plays legally until tick from,
// then fails every live processor each tick (restarting the dead so the
// machine cannot drain) — a contract violation at a known tick.
func killAllFrom(from int) *funcAdversary {
	return &funcAdversary{name: "kill-all", f: func(v *View) Decision {
		var dec Decision
		for pid := 0; pid < v.States.Len(); pid++ {
			if v.States.At(pid) == Dead {
				dec.Restarts = append(dec.Restarts, pid)
			}
		}
		if v.Tick >= from {
			dec.Failures = make(map[int]FailPoint)
			for pid := 0; pid < v.States.Len(); pid++ {
				if v.States.At(pid) == Alive {
					dec.Failures[pid] = FailBeforeReads
				}
			}
		}
		return dec
	}}
}

// TestInjectedCyclePanicFailsRun arms the kernel.cycle failpoint and
// checks the injected panic becomes a run error naming the lowest PID
// and the tick — no process crash. Every PID of the tick panics, so the
// walk must keep the first one it meets.
func TestInjectedCyclePanicFailsRun(t *testing.T) {
	const failTick = 3
	reg := faultinject.New(1)
	reg.Set("kernel.cycle", faultinject.Spec{Mode: faultinject.Panic, After: failTick << 32})
	m := mustMachine(t, Config{N: 16, P: 8, MaxTicks: 100, Faults: reg},
		spinAlg(), &funcAdversary{name: "none"})
	defer m.Close()
	_, err := m.Run()
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("Run err = %v, want ErrWorkerPanic", err)
	}
	var cpe *CyclePanicError
	if !errors.As(err, &cpe) {
		t.Fatalf("Run err %v does not unwrap to *CyclePanicError", err)
	}
	if cpe.Tick != failTick {
		t.Errorf("panic tick = %d, want %d", cpe.Tick, failTick)
	}
	if cpe.PID != 0 {
		t.Errorf("panic pid = %d, want 0 (lowest PID wins)", cpe.PID)
	}
	if inj, ok := cpe.Value.(faultinject.Injected); !ok || inj.Point != "kernel.cycle" {
		t.Errorf("panic value = %#v, want faultinject.Injected{kernel.cycle}", cpe.Value)
	}
}

// TestNaturalCyclePanicRecovered checks a panic raised by algorithm code
// itself (not injected) is also recovered into a run error carrying the
// processor's PID, tick, and panic value.
// The serial subtest name is kept from when a second kernel had a row.
func TestNaturalCyclePanicRecovered(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		alg := &testAlg{
			name: "bomb",
			cycle: func(pid int, ctx *Ctx) Status {
				if pid == 2 {
					panic("boom")
				}
				ctx.Read(0)
				return Continue
			},
		}
		m := mustMachine(t, Config{N: 8, P: 4, MaxTicks: 50}, alg, &funcAdversary{name: "none"})
		defer m.Close()
		_, err := m.Run()
		var cpe *CyclePanicError
		if !errors.As(err, &cpe) {
			t.Fatalf("Run err = %v, want *CyclePanicError", err)
		}
		if cpe.PID != 2 || cpe.Tick != 0 {
			t.Errorf("panic at pid=%d tick=%d, want pid=2 tick=0", cpe.PID, cpe.Tick)
		}
		if cpe.Value != "boom" {
			t.Errorf("panic value = %v, want \"boom\"", cpe.Value)
		}
		if !strings.Contains(err.Error(), "pid=2") {
			t.Errorf("error %q does not name the processor", err)
		}
	})
}

// TestKillAllViolationRecordedAtOffendingTick checks the runtime
// adversary-contract checker: a kill-all move is recorded as a
// ViolationKillAll at the tick it happened, in both legality modes.
func TestKillAllViolationRecordedAtOffendingTick(t *testing.T) {
	const offend = 2

	t.Run("error mode", func(t *testing.T) {
		m := mustMachine(t, Config{N: 16, P: 4, MaxTicks: 100, Legality: ErrorOnIllegal},
			spinAlg(), killAllFrom(offend))
		defer m.Close()
		if _, err := m.Run(); !errors.Is(err, ErrIllegalAdversary) {
			t.Fatalf("Run err = %v, want ErrIllegalAdversary", err)
		}
		vs := m.Violations()
		if len(vs) != 1 {
			t.Fatalf("Violations = %v, want exactly one", vs)
		}
		want := Violation{Kind: ViolationKillAll, Tick: offend, Adversary: "kill-all"}
		if vs[0] != want {
			t.Errorf("violation = %+v, want %+v", vs[0], want)
		}
	})

	t.Run("veto mode", func(t *testing.T) {
		// Default legality: the machine spares a survivor and keeps
		// going, but every offending tick is still diagnosed.
		m := mustMachine(t, Config{N: 16, P: 4, MaxTicks: 20}, spinAlg(), killAllFrom(offend))
		defer m.Close()
		if _, err := m.Run(); !errors.Is(err, ErrTickLimit) {
			t.Fatalf("Run err = %v, want ErrTickLimit (vetoes keep the run alive)", err)
		}
		vs := m.Violations()
		if len(vs) == 0 {
			t.Fatal("no violations recorded under veto mode")
		}
		if vs[0].Kind != ViolationKillAll || vs[0].Tick != offend {
			t.Errorf("first violation = %+v, want kill-all at tick %d", vs[0], offend)
		}
		if got, want := m.ViolationCount(), int64(20-offend); got != want {
			t.Errorf("ViolationCount = %d, want %d (one per offending tick)", got, want)
		}
	})
}

// TestViolationRecordsAreCapped checks the diagnostic buffer stays
// bounded on a long-lived illegal adversary while the exact count keeps
// incrementing.
func TestViolationRecordsAreCapped(t *testing.T) {
	m := mustMachine(t, Config{N: 16, P: 4, MaxTicks: 100}, spinAlg(), killAllFrom(0))
	defer m.Close()
	if _, err := m.Run(); !errors.Is(err, ErrTickLimit) {
		t.Fatalf("Run err = %v, want ErrTickLimit", err)
	}
	if got := len(m.Violations()); got != maxViolations {
		t.Errorf("len(Violations) = %d, want cap %d", got, maxViolations)
	}
	if got := m.ViolationCount(); got != 100 {
		t.Errorf("ViolationCount = %d, want 100", got)
	}
}

// TestViolationsClearedOnReset checks a pooled machine does not leak one
// run's violation diagnostics into the next.
func TestViolationsClearedOnReset(t *testing.T) {
	m := mustMachine(t, Config{N: 8, P: 4, MaxTicks: 10}, spinAlg(), killAllFrom(0))
	defer m.Close()
	if _, err := m.Run(); !errors.Is(err, ErrTickLimit) {
		t.Fatalf("Run err = %v, want ErrTickLimit", err)
	}
	if m.ViolationCount() == 0 {
		t.Fatal("setup run recorded no violations")
	}
	if err := m.Reset(Config{N: 4, P: 4}, oneShotWriter(), &funcAdversary{name: "none"}); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("clean Run: %v", err)
	}
	if got := m.ViolationCount(); got != 0 {
		t.Errorf("ViolationCount after Reset = %d, want 0", got)
	}
	if vs := m.Violations(); len(vs) != 0 {
		t.Errorf("Violations after Reset = %v, want none", vs)
	}
}

// TestSnapshotSentinelsDistinguishFailureClasses checks the two wrapped
// sentinels: corruption/truncation vs a file this build cannot read at
// all. Both must keep matching the ErrSnapshotFormat umbrella.
func TestSnapshotSentinelsDistinguishFailureClasses(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.snap")
	if err := SaveSnapshot(path, sampleSnapshot()); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}

	check := func(name string, mutate func(b []byte) []byte, want error) {
		t.Helper()
		p := filepath.Join(dir, name+".snap")
		if err := os.WriteFile(p, mutate(append([]byte(nil), good...)), 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		_, err := LoadSnapshot(p)
		if !errors.Is(err, want) {
			t.Errorf("%s: err = %v, want %v", name, err, want)
		}
		if !errors.Is(err, ErrSnapshotFormat) {
			t.Errorf("%s: err = %v does not match the ErrSnapshotFormat umbrella", name, err)
		}
	}
	check("truncated", func(b []byte) []byte { return b[:len(b)/2] }, ErrSnapshotCorrupt)
	check("empty", func(b []byte) []byte { return nil }, ErrSnapshotCorrupt)
	check("crc-flip", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }, ErrSnapshotCorrupt)
	check("bad-version", func(b []byte) []byte { b[8] = 0x7F; return b }, ErrSnapshotVersion)
	check("bad-magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrSnapshotVersion)
}

// TestSaveSnapshotRotateSurvivesMidRenameCrash simulates a crash between
// rotating the old checkpoint aside and publishing the new one: the
// previous snapshot must still load via the fallback.
func TestSaveSnapshotRotateSurvivesMidRenameCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.snap")
	gen1 := sampleSnapshot()
	gen1.Tick = 10
	if err := SaveSnapshotRotate(path, gen1); err != nil {
		t.Fatalf("save gen1: %v", err)
	}

	gen2 := sampleSnapshot()
	gen2.Tick = 20

	// Crash on the rotation rename: path itself is untouched.
	reg := faultinject.New(1)
	reg.Set("snapshot.rename", faultinject.Spec{Mode: faultinject.Error, Max: 1})
	old := faultinject.Swap(reg)
	err := SaveSnapshotRotate(path, gen2)
	faultinject.Swap(old)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("save gen2 err = %v, want injected rename failure", err)
	}
	snap, loaded, err := LoadSnapshotFallback(path)
	if err != nil || loaded != path || snap.Tick != 10 {
		t.Fatalf("after rotate-rename crash: snap.Tick=%v loaded=%q err=%v, want gen1 at primary path",
			snapTick(snap), loaded, err)
	}

	// Crash on the publish rename (rotation already happened): the
	// previous generation must be served from the .prev fallback.
	reg = faultinject.New(1)
	reg.Set("snapshot.rename", faultinject.Spec{Mode: faultinject.Error, After: 1, Max: 1})
	old = faultinject.Swap(reg)
	err = SaveSnapshotRotate(path, gen2)
	faultinject.Swap(old)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("save gen2 err = %v, want injected rename failure", err)
	}
	snap, loaded, err = LoadSnapshotFallback(path)
	if err != nil || loaded != path+PrevSnapshotSuffix || snap.Tick != 10 {
		t.Fatalf("after publish-rename crash: snap.Tick=%v loaded=%q err=%v, want gen1 from %s",
			snapTick(snap), loaded, err, path+PrevSnapshotSuffix)
	}
}

func snapTick(s *Snapshot) any {
	if s == nil {
		return "<nil>"
	}
	return s.Tick
}

// TestSnapshotFaultsFallBackToPrevious drives the two remaining media
// failure classes through a rotated checkpoint pair: a torn write (save
// reports the error) and silent bit corruption (save "succeeds", the
// checksum catches it at load time). Both must leave the previous
// generation loadable.
func TestSnapshotFaultsFallBackToPrevious(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode faultinject.Mode
		// saveFails: a torn write surfaces at save time; corruption
		// is silent until load.
		saveFails bool
	}{
		{"torn write", faultinject.Torn, true},
		{"bit corruption", faultinject.Corrupt, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.snap")
			gen1 := sampleSnapshot()
			gen1.Tick = 10
			if err := SaveSnapshotRotate(path, gen1); err != nil {
				t.Fatalf("save gen1: %v", err)
			}
			gen2 := sampleSnapshot()
			gen2.Tick = 20

			reg := faultinject.New(1)
			reg.Set("snapshot.write", faultinject.Spec{Mode: tc.mode, Max: 1})
			old := faultinject.Swap(reg)
			err := SaveSnapshotRotate(path, gen2)
			faultinject.Swap(old)
			if tc.saveFails {
				if !errors.Is(err, faultinject.ErrInjected) {
					t.Fatalf("save gen2 err = %v, want injected write failure", err)
				}
			} else {
				if err != nil {
					t.Fatalf("save gen2: %v (corruption must be silent)", err)
				}
				if _, err := LoadSnapshot(path); !errors.Is(err, ErrSnapshotFormat) {
					t.Fatalf("LoadSnapshot(corrupted) err = %v, want format error", err)
				}
			}

			snap, loaded, err := LoadSnapshotFallback(path)
			if err != nil {
				t.Fatalf("LoadSnapshotFallback: %v", err)
			}
			if loaded != path+PrevSnapshotSuffix || snap.Tick != 10 {
				t.Errorf("fallback loaded %q tick %d, want gen1 from .prev", loaded, snap.Tick)
			}
		})
	}
}

// TestLoadSnapshotFallbackReportsBothFailures checks the combined error
// when neither generation is usable.
func TestLoadSnapshotFallbackReportsBothFailures(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.snap")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := LoadSnapshotFallback(path)
	if err == nil {
		t.Fatal("LoadSnapshotFallback succeeded on garbage with no fallback")
	}
	if !strings.Contains(err.Error(), PrevSnapshotSuffix) {
		t.Errorf("error %q does not mention the fallback path", err)
	}
}

// TestRunnerResumeLatestFallsBack corrupts the newest checkpoint of a
// finished run and checks ResumeLatest degrades to the previous
// generation — logging the fallback — and still reproduces the
// uninterrupted run's metrics exactly.
func TestRunnerResumeLatestFallsBack(t *testing.T) {
	cfg := Config{N: 48, P: 6, MaxTicks: 4000}
	baseline, err := (&Runner{}).Run(cfg, snapAlg{}, churnAdversary())
	if err != nil {
		t.Fatalf("baseline Run: %v", err)
	}

	path := filepath.Join(t.TempDir(), "run.snap")
	var logged []string
	r := &Runner{
		CheckpointEvery: 3,
		CheckpointPath:  path,
		Log:             func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) },
	}
	if _, err := r.Run(cfg, snapAlg{}, churnAdversary()); err != nil {
		t.Fatalf("checkpointed Run: %v", err)
	}
	if _, err := os.Stat(path + PrevSnapshotSuffix); err != nil {
		t.Fatalf("no previous-generation checkpoint kept: %v", err)
	}

	// Truncate the newest checkpoint, as a crash mid-write would.
	if err := os.Truncate(path, 10); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	resumed, err := r.ResumeLatest(cfg, snapAlg{}, churnAdversary())
	if err != nil {
		t.Fatalf("ResumeLatest: %v", err)
	}
	if resumed != baseline {
		t.Errorf("resumed metrics diverge:\nresumed  %+v\nbaseline %+v", resumed, baseline)
	}
	found := false
	for _, l := range logged {
		if strings.Contains(l, "previous checkpoint") {
			found = true
		}
	}
	if !found {
		t.Errorf("fallback was not logged; log = %q", logged)
	}
}

// TestRunCtxCancelFlushesFinalCheckpoint interrupts a checkpointed run
// via context cancellation and checks (a) the error wraps the context
// error, (b) a final checkpoint was flushed at or past the cancel tick,
// and (c) resuming it completes with the uninterrupted run's metrics.
func TestRunCtxCancelFlushesFinalCheckpoint(t *testing.T) {
	// 100 strides per processor with a sparse failure schedule: long
	// enough (>100 ticks) to outlast the 64-tick cancellation polling
	// granularity, sparse enough that cursor-resetting restarts cannot
	// livelock the strided writers.
	sparseChurn := func() *funcAdversary {
		return &funcAdversary{name: "sparse-churn", f: func(v *View) Decision {
			var dec Decision
			for pid := 0; pid < v.P; pid++ {
				if v.States.At(pid) == Dead {
					dec.Restarts = append(dec.Restarts, pid)
				}
			}
			if v.Tick > 0 && v.Tick%40 == 0 {
				target := (v.Tick / 40) % v.P
				if v.States.At(target) == Alive {
					dec.Failures = map[int]FailPoint{target: FailBeforeReads}
				}
			}
			return dec
		}}
	}
	cfg := Config{N: 600, P: 6, MaxTicks: 40000}
	baseline, err := (&Runner{}).Run(cfg, snapAlg{}, sparseChurn())
	if err != nil {
		t.Fatalf("baseline Run: %v", err)
	}
	if baseline.Ticks < 100 {
		t.Fatalf("baseline run too short (%d ticks) to observe cancellation", baseline.Ticks)
	}

	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from inside the run: the adversary sees every tick.
	cancelAt := &funcAdversary{name: "sparse-churn", f: func(v *View) Decision {
		if v.Tick == 10 {
			cancel()
		}
		return sparseChurn().f(v)
	}}
	path := filepath.Join(t.TempDir(), "run.snap")
	r := &Runner{CheckpointEvery: 1000, CheckpointPath: path}
	_, err = r.RunCtx(ctx, cfg, snapAlg{}, cancelAt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx err = %v, want context.Canceled", err)
	}

	snap, err := LoadSnapshot(path)
	if err != nil {
		t.Fatalf("no final checkpoint flushed: %v", err)
	}
	if snap.Tick < 10 {
		t.Errorf("final checkpoint at tick %d, want >= 10 (the cancel tick)", snap.Tick)
	}
	if snap.Tick >= baseline.Ticks {
		t.Fatalf("checkpoint tick %d not inside the run (baseline %d ticks)", snap.Tick, baseline.Ticks)
	}
	resumed, err := r.Resume(cfg, snapAlg{}, sparseChurn(), snap)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if resumed != baseline {
		t.Errorf("resumed metrics diverge:\nresumed  %+v\nbaseline %+v", resumed, baseline)
	}
}

// TestMachineRunCtxHonorsCancellation checks the machine-level context
// path (no checkpointing) also stops at a tick boundary.
func TestMachineRunCtxHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := mustMachine(t, Config{N: 16, P: 4, MaxTicks: 1 << 20}, spinAlg(), &funcAdversary{name: "none"})
	defer m.Close()
	if _, err := m.RunCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx err = %v, want context.Canceled", err)
	}
}
