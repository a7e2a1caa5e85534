package failstop

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/pram"
)

// packedGridAlgs is the algorithm grid of the representation contract:
// every Write-All algorithm is an ArrayDoneHinter, so each one exercises
// the packed prefix — X-in-place through the promotion path (it writes
// tree values into the array cells).
func packedGridAlgs(base, snapshot Config) []struct {
	name string
	cfg  Config
	mk   func() Algorithm
} {
	return []struct {
		name string
		cfg  Config
		mk   func() Algorithm
	}{
		{"X", base, NewX},
		{"X-in-place", base, NewXInPlace},
		{"V", base, NewV},
		{"combined", base, NewCombined},
		{"W", base, NewW},
		{"oblivious", snapshot, NewOblivious},
		{"ACC", base, func() Algorithm { return NewACC(11) }},
		{"trivial", base, NewTrivial},
		{"sequential", base, NewSequential},
		{"replicated", base, NewReplicated},
	}
}

// TestPackedEquivalence is the representation contract of Config.Packed:
// for every Write-All algorithm x adversary pairing, a packed run is
// bit-identical to an unpacked run — same metrics, final memory, event
// trace, and error. The bit-packed prefix is a layout choice, never an
// observable one.
func TestPackedEquivalence(t *testing.T) {
	const n, p = 64, 16
	base := Config{N: n, P: p, MaxTicks: 4000}
	snapshot := base
	snapshot.AllowSnapshot = true

	advs := []struct {
		name string
		mk   func() Adversary
	}{
		{"none", NoFailures},
		{"random", func() Adversary { return RandomFailures(0.2, 0.6, 7) }},
		{"random-budgeted", func() Adversary { return BudgetedRandomFailures(0.3, 0.7, 13, 64) }},
		{"thrashing", func() Adversary { return ThrashingAdversary(false) }},
		{"rotating", func() Adversary { return ThrashingAdversary(true) }},
		{"halving", HalvingAdversary},
	}

	for _, alg := range packedGridAlgs(base, snapshot) {
		for _, adv := range advs {
			t.Run(alg.name+"/"+adv.name, func(t *testing.T) {
				unpacked := runMachine(t, alg.mk, adv.mk, alg.cfg)
				pcfg := alg.cfg
				pcfg.Packed = true
				packed := runMachine(t, alg.mk, adv.mk, pcfg)
				assertRunsEqual(t, "packed", unpacked, packed)
			})
		}
	}

	// The tree-walking adversaries read algorithm X's progress-tree
	// layout out of shared memory, so they only pair with X.
	treeAdvs := []struct {
		name string
		mk   func() Adversary
	}{
		{"postorder", func() Adversary { return PostOrderAdversary(n, p) }},
		{"stalking", func() Adversary { return StalkingAdversary(n, p, true) }},
		{"stalking-failstop", func() Adversary { return StalkingAdversary(n, p, false) }},
	}
	for _, adv := range treeAdvs {
		t.Run("X/"+adv.name, func(t *testing.T) {
			unpacked := runMachine(t, NewX, adv.mk, base)
			pcfg := base
			pcfg.Packed = true
			packed := runMachine(t, NewX, adv.mk, pcfg)
			assertRunsEqual(t, "packed", unpacked, packed)
		})
	}
}

// runBatched drives a machine through TickBatch in chunks of the given
// size and returns its outcome (no trace: sinks disable batching unless
// they opt in, and the per-tick trace contract is covered elsewhere).
func runBatched(t *testing.T, mkAlg func() Algorithm, mkAdv func() Adversary, cfg Config, chunk int) runOutcome {
	t.Helper()
	m, err := pram.New(cfg, mkAlg(), mkAdv())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer m.Close()
	var out runOutcome
	for {
		_, done, err := m.TickBatch(chunk)
		if err != nil {
			out.err = err.Error()
			break
		}
		if done {
			break
		}
	}
	out.metrics = m.Metrics()
	out.mem = m.Memory().CopyInto(nil)
	return out
}

// assertOutcomesEqual compares the trace-free observables of two runs.
func assertOutcomesEqual(t *testing.T, label string, want, got runOutcome) {
	t.Helper()
	if want.err != got.err {
		t.Fatalf("%s: err = %q, want %q", label, got.err, want.err)
	}
	if want.metrics != got.metrics {
		t.Errorf("%s: metrics diverge:\nper-tick %+v\nbatched  %+v", label, want.metrics, got.metrics)
	}
	if len(want.mem) != len(got.mem) {
		t.Fatalf("%s: memory sizes diverge: %d vs %d", label, len(want.mem), len(got.mem))
	}
	for i := range want.mem {
		if want.mem[i] != got.mem[i] {
			t.Fatalf("%s: final memory diverges at cell %d: %d vs %d", label, i, want.mem[i], got.mem[i])
		}
	}
}

// TestTickBatchEquivalence is the determinism contract of the batched
// tick kernel: runs driven by TickBatch — with quiet windows actually
// committing multiple ticks per bookkeeping round — finish with the same
// metrics, tick count, and memory as per-tick stepping, across batchable
// algorithms, adversaries with and without scheduled failures, chunk
// sizes, and both memory representations.
func TestTickBatchEquivalence(t *testing.T) {
	const n, p = 256, 16
	base := Config{N: n, P: p, MaxTicks: 4000}

	// A scheduled pattern with quiescent gaps on both sides: the batch
	// kernel must stop windows short of tick 5 and 9, fall back to
	// per-tick stepping through the events, then re-open windows.
	pattern := []adversary.Event{
		{Tick: 5, PID: 1, Kind: adversary.Fail, Point: pram.FailBeforeReads},
		{Tick: 5, PID: 2, Kind: adversary.Fail, Point: pram.FailAfterWrite1},
		{Tick: 9, PID: 1, Kind: adversary.Restart},
		{Tick: 9, PID: 2, Kind: adversary.Restart},
		{Tick: 11, PID: 0, Kind: adversary.Fail, Point: pram.FailAfterReads},
		{Tick: 14, PID: 0, Kind: adversary.Restart},
	}

	algs := []struct {
		name string
		mk   func() Algorithm
	}{
		{"trivial", NewTrivial},
		{"sequential", NewSequential},
	}
	advs := []struct {
		name string
		mk   func() Adversary
	}{
		{"none", NoFailures},
		{"scheduled", func() Adversary { return adversary.NewScheduled(pattern) }},
		// Budget-exhausted random: quiescent only after the budget is
		// spent, so early ticks step and the tail batches.
		{"random-budgeted", func() Adversary { return BudgetedRandomFailures(0.3, 0.7, 13, 16) }},
	}

	for _, alg := range algs {
		for _, adv := range advs {
			for _, packed := range []bool{false, true} {
				for _, chunk := range []int{5, 64, 4096} {
					name := fmt.Sprintf("%s/%s/packed=%v/chunk=%d", alg.name, adv.name, packed, chunk)
					t.Run(name, func(t *testing.T) {
						cfg := base
						cfg.Packed = packed
						perTick := runMachine(t, alg.mk, adv.mk, cfg)
						batched := runBatched(t, alg.mk, adv.mk, cfg, chunk)
						assertOutcomesEqual(t, "batched", perTick, batched)
					})
				}
			}
		}
	}
}

// TestTickBatchFallsBackForNonBatchAlgorithms pins the graceful path:
// an algorithm without CycleBatch support still runs correctly through
// TickBatch, one tick at a time.
func TestTickBatchFallsBackForNonBatchAlgorithms(t *testing.T) {
	cfg := Config{N: 64, P: 16, MaxTicks: 4000}
	perTick := runMachine(t, NewX, NoFailures, cfg)
	batched := runBatched(t, NewX, NoFailures, cfg, 64)
	assertOutcomesEqual(t, "fallback", perTick, batched)
}

// packedResume runs the midpoint-snapshot-resume protocol across memory
// representations: the snapshot is taken on a machine with srcPacked and
// restored into a fresh machine with dstPacked, round-tripping through
// the binary format. The resumed run must reproduce the unpacked
// baseline's metrics, memory, error, and trace suffix regardless of the
// representations on either side.
func packedResume(t *testing.T, mkAlg func() Algorithm, mkAdv func() Adversary, base Config, srcPacked, dstPacked bool) (want, resumed runOutcome) {
	t.Helper()

	baseline := runMachine(t, mkAlg, mkAdv, base)
	splitTick := baseline.metrics.Ticks / 2

	srcCfg := base
	srcCfg.Packed = srcPacked
	half, err := pram.New(srcCfg, mkAlg(), mkAdv())
	if err != nil {
		t.Fatalf("New (half run): %v", err)
	}
	defer half.Close()
	for half.Tick() < splitTick {
		done, err := half.Step()
		if err != nil {
			t.Fatalf("Step at tick %d: %v", half.Tick(), err)
		}
		if done {
			t.Fatalf("run completed at tick %d, before split tick %d", half.Tick(), splitTick)
		}
	}
	snap, err := half.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot at tick %d: %v", splitTick, err)
	}

	var buf bytes.Buffer
	if err := pram.WriteSnapshot(&buf, snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	loaded, err := pram.ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}

	dstCfg := base
	dstCfg.Packed = dstPacked
	dstCfg.Sink = &resumed.trace
	m, err := pram.New(dstCfg, mkAlg(), mkAdv())
	if err != nil {
		t.Fatalf("New (resumed run): %v", err)
	}
	defer m.Close()
	if err := m.RestoreSnapshot(loaded); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	resumed.metrics, err = m.Run()
	if err != nil {
		resumed.err = err.Error()
	}
	resumed.mem = m.Memory().CopyInto(nil)

	want = runOutcome{metrics: baseline.metrics, mem: baseline.mem, err: baseline.err}
	want.trace.runs = baseline.trace.runs
	for _, ev := range baseline.trace.cycles {
		if ev.Tick >= splitTick {
			want.trace.cycles = append(want.trace.cycles, ev)
		}
	}
	for _, ev := range baseline.trace.ticks {
		if ev.Tick >= splitTick {
			want.trace.ticks = append(want.trace.ticks, ev)
		}
	}
	return want, resumed
}

// TestPackedResumeEquivalence extends the checkpoint determinism
// contract to the packed representation, including cross-representation
// restores in both directions: snapshots carry logical cell contents, so
// a packed checkpoint resumes on an unpacked machine and vice versa.
func TestPackedResumeEquivalence(t *testing.T) {
	base := Config{N: 64, P: 16, MaxTicks: 4000}

	algs := []struct {
		name string
		mk   func() Algorithm
	}{
		{"X", NewX},
		{"X-in-place", NewXInPlace}, // may promote mid-run: snapshot can be packed or not
		{"trivial", NewTrivial},
		{"sequential", NewSequential},
	}
	advs := []struct {
		name string
		mk   func() Adversary
	}{
		{"none", NoFailures},
		{"random", func() Adversary { return RandomFailures(0.2, 0.6, 7) }},
	}
	dirs := []struct {
		name     string
		src, dst bool
	}{
		{"packed-to-packed", true, true},
		{"packed-to-unpacked", true, false},
		{"unpacked-to-packed", false, true},
	}

	for _, alg := range algs {
		for _, adv := range advs {
			for _, d := range dirs {
				t.Run(alg.name+"/"+adv.name+"/"+d.name, func(t *testing.T) {
					want, resumed := packedResume(t, alg.mk, adv.mk, base, d.src, d.dst)
					assertRunsEqual(t, d.name, want, resumed)
				})
			}
		}
	}
}

// TestPackedSnapshotCapturesRepresentation pins the size contract that
// motivates snapshot format v2: a packed machine's snapshot stores the
// prefix as bits, not one word per cell.
func TestPackedSnapshotCapturesRepresentation(t *testing.T) {
	cfg := Config{N: 1024, P: 4, MaxTicks: 4000, Packed: true}
	m, err := pram.New(cfg, NewTrivial(), NoFailures())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer m.Close()
	for i := 0; i < 8; i++ {
		if done, err := m.Step(); done || err != nil {
			t.Fatalf("Step %d: done=%v err=%v", i, done, err)
		}
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if snap.PackedLen != cfg.N || len(snap.PackedBits) != (cfg.N+63)/64 {
		t.Fatalf("snapshot prefix = %d cells in %d bit words, want %d in %d",
			snap.PackedLen, len(snap.PackedBits), cfg.N, (cfg.N+63)/64)
	}
	if len(snap.Mem) != 0 {
		t.Fatalf("snapshot tail has %d words; trivial's memory is all prefix", len(snap.Mem))
	}
	if snap.MemSize() != cfg.N {
		t.Fatalf("MemSize = %d, want %d", snap.MemSize(), cfg.N)
	}
}
