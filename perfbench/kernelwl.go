package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
)

// kernelWorkload runs paper-kernel or bigN-batched: a fixed pass of
// kernelItems, repeated on one pooled Runner with no sinks and no
// checkpoints.
type kernelWorkload struct {
	e     *env
	name  string
	pass  func(seed int64) []kernelItem
	items []kernelItem
	ref   []stats
	kr    *kernelRunner
}

func newPaperKernel(e *env) workload {
	return &kernelWorkload{e: e, name: "paper-kernel", pass: paperKernelPass}
}

func newBigN(e *env) workload { return &kernelWorkload{e: e, name: "bigN-batched", pass: bigNPass} }

func (w *kernelWorkload) workerPID() int { return 0 }
func (w *kernelWorkload) digest() string { return digest(w.ref) }
func (w *kernelWorkload) close() {
	if w.kr != nil {
		w.kr.r.Close()
	}
}

// setupOnce times what stands between the workload start and its first
// item: generating the pass, building every adversary (compiling the lab
// strategies), and a fresh Runner's first machine allocation at the
// pass's largest shape (packed memory for bigN). It keeps the pass and
// the Runner for the run.
func (w *kernelWorkload) setupOnce() (time.Duration, error) {
	start := time.Now()
	items := w.pass(w.e.seed)
	big := items[0]
	for _, it := range items {
		if _, err := it.Adv.build(); err != nil {
			return 0, err
		}
		if it.N*it.P > big.N*big.P {
			big = it
		}
	}
	alg, _, err := engine.NewAlgorithm(big.Alg, 0)
	if err != nil {
		return 0, err
	}
	adv, _ := big.Adv.build()
	kr := &kernelRunner{}
	if _, err := kr.r.Machine(big.config(), alg, adv); err != nil {
		return 0, err
	}
	d := time.Since(start)
	w.items, w.kr = items, kr
	return d, nil
}

// timeSetup times setupOnce in a fresh process of this program, as cold
// as a user's run, without touching this process's heap.
func (w *kernelWorkload) timeSetup(ctx context.Context) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	out, err := exec.CommandContext(ctx, exe, "--setup-child", "--workload", w.name, "--seed", fmt.Sprint(w.e.seed)).Output()
	if err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	t, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil {
		return 0, fmt.Errorf("set-up process printed %q: %w", out, err)
	}
	return t, nil
}

// setup times five set-ups, each in a fresh process, then sets up this
// process, untimed, for the run. Measured phases time one more set-up
// after every pass (see measure): a set-up of a millisecond or two moves
// by a third with the host's state from one second to the next, so the
// repetitions are spread over the run.
func (w *kernelWorkload) setup(ctx context.Context) ([]float64, error) {
	var times []float64
	for rep := 0; rep < 5; rep++ {
		t, err := w.timeSetup(ctx)
		if err != nil {
			return nil, err
		}
		times = append(times, t)
	}
	if _, err := w.setupOnce(); err != nil {
		return nil, err
	}
	return times, nil
}

// warmup runs one pass and records each item's statistics as the
// reference every later execution must reproduce.
func (w *kernelWorkload) warmup(ctx context.Context) error {
	w.ref = make([]stats, len(w.items))
	for i, it := range w.items {
		met, err := w.kr.run(ctx, -1, it)
		if err != nil {
			return err
		}
		w.ref[i] = statsOf(met)
	}
	return nil
}

func (w *kernelWorkload) measure(ctx context.Context, d time.Duration, tr *tracer) (*phase, error) {
	kr := w.kr
	kr.tr, kr.kernelCounts = tr, kernelCounts{}
	p := &phase{}
	var ticks, killed, sumN, sumF int64
	var heapPeak uint64
	batched := false
	id := int64(0)
	m := startMeter(0)
	for end := time.Now().Add(d); ; {
		for i, it := range w.items {
			start := time.Now()
			met, err := kr.run(ctx, id, it)
			lat := time.Since(start)
			id++
			p.attempted++
			switch {
			case err != nil:
				p.failed++
				w.e.log("item %d (%s) failed: %v", i, it, err)
				continue
			case statsOf(met) != w.ref[i]:
				p.failed++
				w.e.log("item %d (%s) stats %+v differ from the reference %+v", i, it, statsOf(met), w.ref[i])
				continue
			}
			p.latMs = append(p.latMs, float64(lat)/1e6)
			p.cycles += met.S()
			ticks += int64(met.Ticks)
			killed += met.Incomplete
			sumN += int64(it.N)
			sumF += met.FSize()
			batched = batched || it.Batch > 1
			if tr != nil {
				heapPeak = max(heapPeak, heapBytes())
			}
		}
		m.mark(p)
		if time.Now().After(end) {
			break
		}
		t, err := w.timeSetup(ctx)
		if err != nil {
			return nil, err
		}
		p.setups = append(p.setups, t)
		m.skip(p)
	}
	if err := m.stop(p); err != nil {
		return nil, err
	}
	if tr == nil {
		return p, nil
	}

	layers := tr.selfTimes()
	runnerSelf := selfOf(layers, "runner.Machine").Self
	cycles := float64(max(p.cycles, 1))
	p.layers = map[string]float64{
		"pram.ticks":                   float64(ticks),
		"pram.cycles":                  float64(p.cycles),
		"pram.cycles_killed":           float64(killed),
		"runner.self_ns_per_cycle":     float64(runnerSelf) / cycles,
		"adversary.decide_ns_per_tick": float64(kr.decideNs) / float64(max(kr.decideCalls, 1)),
		"adversary.quiet_ticks_frac":   float64(ticks-kr.activeTicks) / float64(max(ticks, 1)),
		"adversary.events":             float64(kr.advEvents),
		"writeall.work_per_cell":       float64(p.cycles) / float64(sumN),
		"writeall.sigma":               float64(p.cycles) / float64(sumN+sumF),
		"runtime.heap_peak_mb":         float64(heapPeak) / (1 << 20),
	}
	if batched {
		// Every tick outside a quiet window calls Decide exactly once, so
		// the ticks Decide never saw are the ones TickBatch windows
		// advanced.
		p.layers["pram.batch_ticks_frac"] = float64(ticks-kr.decideCalls) / float64(max(ticks, 1))
		p.layers["pram.batch_call_ns_p50"] = p50(tr.samplesOf("machine.TickBatch"), 1)
		p.notes = append(p.notes, fmt.Sprintf("TickBatch calls %d, ticks %d, Decide calls %d", kr.batchCalls, ticks, kr.decideCalls))
	} else {
		p.layers["pram.step_ns_p50"] = p50(tr.samplesOf("machine.Step"), 1)
	}
	return p, nil
}

var heapSample = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}

// heapBytes is the live plus not-yet-swept heap object memory.
func heapBytes() uint64 {
	metrics.Read(heapSample)
	return heapSample[0].Value.Uint64()
}
