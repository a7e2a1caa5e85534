package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/pram"
)

// fabricWorkers is the number of in-process workers: one per vCPU of
// the two-vCPU reference machine.
const fabricWorkers = 2

// fabricCopies is how many copies of each service spec one round holds:
// 9 × 24 = 216 tasks, a few hundred per fresh ledger.
const fabricCopies = 9

// fabricWorkload drains rounds of Run tasks through a Coordinator on a
// fresh ledger with in-process Workers, then reopens the finished ledger,
// where every task is a cache hit.
type fabricWorkload struct {
	e     *env
	specs []engine.RunSpec // one service pass, without checkpoints
	ref   []stats
	tasks []fabric.Task
	round int
}

func newFabric(e *env) workload { return &fabricWorkload{e: e} }

func (w *fabricWorkload) workerPID() int { return 0 }
func (w *fabricWorkload) digest() string { return digest(w.ref) }
func (w *fabricWorkload) close()         {}

// roundResult is one drained round.
type roundResult struct {
	setup      time.Duration // fresh-ledger open + finished-ledger reopen
	replay     time.Duration // the reopen alone
	wall       time.Duration // workers started to last commit
	verified   []time.Duration
	failed     int
	cycles     int64
	ticks      int64
	killed     int64
	sumN, sumF int64
	stats      fabric.Stats
	busy       time.Duration
}

func (w *fabricWorkload) setup(ctx context.Context) ([]float64, error) {
	w.specs = servicePass(w.e.seed)
	var r pram.Runner
	defer r.Close()
	w.ref = make([]stats, len(w.specs))
	for i := range w.specs {
		w.specs[i].CheckpointEvery = 0
		st, err := referenceStats(&r, w.specs[i])
		if err != nil {
			return nil, err
		}
		w.ref[i] = st
	}
	for c := 0; c < fabricCopies; c++ {
		for i := range w.specs {
			w.tasks = append(w.tasks, fabric.Task{Key: fmt.Sprintf("c%d/s%02d", c, i), Run: &w.specs[i]})
		}
	}
	// Every round pays the coordinator opens again; measured rounds add
	// their own set-up times to these three.
	var times []float64
	for rep := 0; rep < 3; rep++ {
		rr, err := w.runRound(ctx, nil)
		if err != nil {
			return nil, err
		}
		if rr.failed > 0 {
			return nil, fmt.Errorf("set-up round: %d tasks failed verification", rr.failed)
		}
		times = append(times, rr.setup.Seconds())
	}
	return times, nil
}

// warmup: the set-up rounds already ran every task three times.
func (w *fabricWorkload) warmup(ctx context.Context) error { return nil }

func (w *fabricWorkload) measure(ctx context.Context, d time.Duration, tr *tracer) (*phase, error) {
	p := &phase{}
	var total roundResult
	var replays []float64
	m := startMeter(0)
	for end := time.Now().Add(d); ; {
		rr, err := w.runRound(ctx, tr)
		if err != nil {
			return nil, err
		}
		p.attempted += len(w.tasks)
		p.failed += rr.failed
		for _, l := range rr.verified {
			p.latMs = append(p.latMs, float64(l)/1e6)
		}
		p.cycles += rr.cycles
		total.ticks += rr.ticks
		total.killed += rr.killed
		total.sumN += rr.sumN
		total.sumF += rr.sumF
		total.wall += rr.wall
		total.busy += rr.busy
		total.stats.LeasesGranted += rr.stats.LeasesGranted
		total.stats.Commits += rr.stats.Commits
		total.stats.Retries += rr.stats.Retries
		total.stats.DuplicateCommits += rr.stats.DuplicateCommits
		replays = append(replays, float64(rr.replay)/1e6)
		p.setups = append(p.setups, rr.setup.Seconds())
		m.mark(p)
		if time.Now().After(end) {
			break
		}
	}
	if err := m.stop(p); err != nil {
		return nil, err
	}
	p.notes = append(p.notes, fmt.Sprintf("%d rounds of %d tasks; replay of a finished ledger %.3f ms (median)",
		len(replays), len(w.tasks), median(replays)))
	if tr == nil {
		return p, nil
	}
	st := total.stats
	p.layers = map[string]float64{
		"pram.ticks":               float64(total.ticks),
		"pram.cycles":              float64(p.cycles),
		"pram.cycles_killed":       float64(total.killed),
		"writeall.work_per_cell":   float64(p.cycles) / float64(total.sumN),
		"writeall.sigma":           float64(p.cycles) / float64(total.sumN+total.sumF),
		"fabric.lease_us_p50":      p50(tr.samplesOf("fabric.Lease"), 1e3),
		"fabric.complete_us_p50":   p50(tr.samplesOf("fabric.Complete"), 1e3),
		"fabric.useful_frac":       float64(st.Commits) / float64(max(st.LeasesGranted, 1)),
		"fabric.worker_idle_frac":  1 - float64(total.busy)/float64(fabricWorkers*total.wall),
		"fabric.replay_ms":         median(replays),
		"fabric.leases":            float64(st.LeasesGranted),
		"fabric.commits":           float64(st.Commits),
		"fabric.retries":           float64(st.Retries),
		"fabric.duplicate_commits": float64(st.DuplicateCommits),
		"runtime.heap_peak_mb":     float64(heapBytes()) / (1 << 20),
	}
	return p, nil
}

// runRound drains every task through a coordinator on a fresh ledger,
// verifies each committed result against its reference, then reopens
// the ledger and checks that every task comes back as a cache hit with
// the same bytes.
func (w *fabricWorkload) runRound(ctx context.Context, tr *tracer) (*roundResult, error) {
	dir := filepath.Join(w.e.work, fmt.Sprintf("round-%d", w.round))
	w.round++
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ledger := filepath.Join(dir, "ledger.jsonl")
	opts := fabric.Options{CodeVersion: "perfbench", Seed: w.e.seed}
	rr := &roundResult{}

	start := time.Now()
	coord, err := fabric.NewCoordinator(w.tasks, ledger, opts)
	if err != nil {
		return nil, err
	}
	rr.setup = time.Since(start)

	// The round ends at the last commit: a worker told "nothing
	// leasable" would otherwise sleep out the coordinator's retry hint
	// (a quarter of the lease TTL) before it hears the Do-All is done.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	tt := newTimedTransport(coord, tr, int64(w.round)<<32)
	tt.onCommit = func() {
		if coord.Done() {
			cancel()
		}
	}
	var wg sync.WaitGroup
	errc := make(chan error, fabricWorkers)
	drainStart := time.Now()
	for i := 0; i < fabricWorkers; i++ {
		wk := &fabric.Worker{ID: fmt.Sprintf("w%d", i), Coord: tt, Logf: w.e.log}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := wk.Run(runCtx); err != nil && !errors.Is(err, context.Canceled) {
				errc <- err
			}
		}()
	}
	wg.Wait()
	close(errc)
	rr.wall = tt.lastCommit.Sub(drainStart)
	if err := <-errc; err != nil {
		coord.Close()
		return nil, err
	}
	if !coord.Done() {
		coord.Close()
		return nil, errors.New("fabric round ended before every task committed")
	}
	rr.stats = coord.Stats()
	rr.busy = tt.busy

	latency := make(map[string]time.Duration, len(tt.done))
	for _, d := range tt.done {
		latency[d.key] = d.latency
	}
	results := make([][]byte, len(w.tasks))
	for i, t := range w.tasks {
		raw, ok := coord.Result(t.Key)
		var res engine.RunResult
		idx := i % len(w.specs)
		if ok {
			ok = json.Unmarshal(raw, &res) == nil && statsOf(res.Metrics) == w.ref[idx]
		}
		lat, timed := latency[t.Key]
		if !ok || !timed {
			rr.failed++
			w.e.log("fabric task %s failed verification (result %v, timed %v)", t.Key, ok, timed)
			continue
		}
		results[i] = raw
		rr.verified = append(rr.verified, lat)
		rr.cycles += res.Metrics.S()
		rr.ticks += int64(res.Metrics.Ticks)
		rr.killed += res.Metrics.Incomplete
		rr.sumN += int64(w.specs[idx].N)
		rr.sumF += res.Metrics.FSize()
	}
	if err := coord.Close(); err != nil {
		return nil, err
	}

	start = time.Now()
	again, err := fabric.NewCoordinator(w.tasks, ledger, opts)
	if err != nil {
		return nil, err
	}
	rr.replay = time.Since(start)
	rr.setup += rr.replay
	defer again.Close()
	if st := again.Stats(); st.CacheHits != len(w.tasks) || !again.Done() {
		return nil, fmt.Errorf("reopened ledger: %d cache hits of %d tasks", st.CacheHits, len(w.tasks))
	}
	for i, t := range w.tasks {
		raw, ok := again.Result(t.Key)
		if results[i] != nil && (!ok || !bytes.Equal(raw, results[i])) {
			return nil, fmt.Errorf("reopened ledger: task %s result differs from its commit", t.Key)
		}
	}
	return rr, nil
}
