package pram

import (
	"context"
	"fmt"
	"log"
	"time"
)

// Runner executes many runs on one pooled Machine, so sweep drivers (the
// experiment tables, bench.Points, benchmarks) stop reconstructing the
// world per run: shared memory, contexts, scratch buffers, and — for
// Resettable processors of a reused Algorithm instance — per-processor
// private state all carry over. Runs are bit-identical to fresh Machines
// (see Machine.Reset). The zero value is ready to use; a Runner must not
// be used concurrently, but independent Runners are safe in parallel
// (bench.Points keeps one per goroutine via a sync.Pool).
type Runner struct {
	m *Machine

	// CheckpointEvery, when positive together with a non-empty
	// CheckpointPath, makes runs checkpoint the machine to
	// CheckpointPath (crash-consistently, via SaveSnapshotRotate's
	// write-tmp-rename with one generation of history) every
	// CheckpointEvery ticks, so a killed run can be resumed from the
	// last loadable checkpoint with Resume or ResumeLatest.
	CheckpointEvery int
	// CheckpointPath is the checkpoint file location; see CheckpointEvery.
	CheckpointPath string
	// BatchTicks, when > 1, drives runs through Machine.TickBatch in
	// chunks of up to BatchTicks ticks, amortizing per-tick bookkeeping
	// over quiescent stretches (see TickBatch for the exact fallback
	// rules; runs remain tick-for-tick equivalent to per-tick stepping).
	// Checkpoint boundaries cap the chunk so checkpoints land on the
	// same ticks they would per-tick.
	BatchTicks int
	// Log receives human-readable notices the Runner emits when it
	// degrades gracefully — falling back to the previous checkpoint,
	// flushing a final checkpoint on cancellation. Nil means log.Printf.
	Log func(format string, args ...any)
}

func (r *Runner) logf(format string, args ...any) {
	if r.Log != nil {
		r.Log(format, args...)
		return
	}
	log.Printf(format, args...)
}

// Run executes one complete run of alg against adv under cfg on the
// pooled machine, returning its final metrics. With checkpointing
// configured (CheckpointEvery > 0 and CheckpointPath set) the run is
// periodically snapshotted to CheckpointPath.
func (r *Runner) Run(cfg Config, alg Algorithm, adv Adversary) (Metrics, error) {
	return r.RunCtx(context.Background(), cfg, alg, adv)
}

// RunCtx is Run with cooperative cancellation: when ctx is canceled the
// run stops at the next tick boundary, flushes a final checkpoint (if
// checkpointing is configured) so the interrupted run stays resumable,
// and returns an error wrapping ctx.Err().
func (r *Runner) RunCtx(ctx context.Context, cfg Config, alg Algorithm, adv Adversary) (Metrics, error) {
	m, err := r.Machine(cfg, alg, adv)
	if err != nil {
		return Metrics{}, err
	}
	return r.runCtx(ctx, m)
}

// Resume restores snap into a machine configured for cfg/alg/adv and
// runs it to completion. The resumed run is bit-identical to the
// remainder of the run the snapshot was taken from; checkpointing, if
// configured, continues from the restored tick.
func (r *Runner) Resume(cfg Config, alg Algorithm, adv Adversary, snap *Snapshot) (Metrics, error) {
	return r.ResumeCtx(context.Background(), cfg, alg, adv, snap)
}

// ResumeCtx is Resume with cooperative cancellation (see RunCtx).
func (r *Runner) ResumeCtx(ctx context.Context, cfg Config, alg Algorithm, adv Adversary, snap *Snapshot) (Metrics, error) {
	m, err := r.Machine(cfg, alg, adv)
	if err != nil {
		return Metrics{}, err
	}
	if err := m.RestoreSnapshot(snap); err != nil {
		return Metrics{}, err
	}
	obsResume()
	return r.runCtx(ctx, m)
}

// ResumeLatest resumes from the newest loadable checkpoint at
// CheckpointPath: the current generation if it loads, otherwise the
// previous one kept by SaveSnapshotRotate — in which case the fallback
// is logged, because the run re-executes the ticks between the two
// checkpoints (correct, just slower).
func (r *Runner) ResumeLatest(cfg Config, alg Algorithm, adv Adversary) (Metrics, error) {
	return r.ResumeLatestCtx(context.Background(), cfg, alg, adv)
}

// ResumeLatestCtx is ResumeLatest with cooperative cancellation.
func (r *Runner) ResumeLatestCtx(ctx context.Context, cfg Config, alg Algorithm, adv Adversary) (Metrics, error) {
	if r.CheckpointPath == "" {
		return Metrics{}, fmt.Errorf("pram: ResumeLatest requires CheckpointPath")
	}
	snap, loaded, err := LoadSnapshotFallback(r.CheckpointPath)
	if err != nil {
		return Metrics{}, err
	}
	if loaded != r.CheckpointPath {
		obsResumeFallback()
		r.logf("pram: checkpoint %s unusable; resuming from previous checkpoint %s (tick %d)",
			r.CheckpointPath, loaded, snap.Tick)
	}
	return r.ResumeCtx(ctx, cfg, alg, adv, snap)
}

// runCtx drives m to completion, checkpointing and honoring ctx.
func (r *Runner) runCtx(ctx context.Context, m *Machine) (Metrics, error) {
	if r.BatchTicks > 1 {
		return r.runBatchCtx(ctx, m)
	}
	if r.CheckpointEvery <= 0 || r.CheckpointPath == "" {
		return m.RunCtx(ctx)
	}
	done := ctx.Done()
	next := m.Tick() + r.CheckpointEvery
	for i := 0; ; i++ {
		if done != nil && i&63 == 0 {
			select {
			case <-done:
				// Flush a final checkpoint so the canceled run resumes
				// from here rather than the last periodic checkpoint.
				if err := r.checkpoint(m); err != nil {
					r.logf("pram: final checkpoint on cancel failed: %v", err)
				}
				return m.Metrics(), fmt.Errorf("pram: run canceled at tick %d: %w", m.Tick(), ctx.Err())
			default:
			}
		}
		finished, err := m.Step()
		if err != nil {
			return m.Metrics(), err
		}
		if finished {
			return m.Metrics(), nil
		}
		if m.Tick() >= next {
			if err := r.checkpoint(m); err != nil {
				return m.Metrics(), err
			}
			next = m.Tick() + r.CheckpointEvery
		}
	}
}

// runBatchCtx drives m to completion through TickBatch in BatchTicks
// chunks. Cancellation is polled once per chunk (a chunk is bounded, so
// the poll stays off the per-tick hot path); with checkpointing
// configured, chunks are capped at the next checkpoint boundary so
// checkpoints land on the same ticks a per-tick run would produce.
func (r *Runner) runBatchCtx(ctx context.Context, m *Machine) (Metrics, error) {
	done := ctx.Done()
	checkpointing := r.CheckpointEvery > 0 && r.CheckpointPath != ""
	next := m.Tick() + r.CheckpointEvery
	for {
		if done != nil {
			select {
			case <-done:
				if checkpointing {
					if err := r.checkpoint(m); err != nil {
						r.logf("pram: final checkpoint on cancel failed: %v", err)
					}
				}
				return m.Metrics(), fmt.Errorf("pram: run canceled at tick %d: %w", m.Tick(), ctx.Err())
			default:
			}
		}
		k := r.BatchTicks
		if checkpointing {
			if rem := next - m.Tick(); rem < k {
				k = rem
			}
		}
		if k < 1 {
			k = 1
		}
		_, finished, err := m.TickBatch(k)
		if err != nil {
			return m.Metrics(), err
		}
		if finished {
			return m.Metrics(), nil
		}
		if checkpointing && m.Tick() >= next {
			if err := r.checkpoint(m); err != nil {
				return m.Metrics(), err
			}
			next = m.Tick() + r.CheckpointEvery
		}
	}
}

// checkpoint snapshots m and saves it to CheckpointPath with rotation.
func (r *Runner) checkpoint(m *Machine) error {
	start := time.Now()
	snap, err := m.Snapshot()
	if err != nil {
		return fmt.Errorf("pram: checkpoint at tick %d: %w", m.Tick(), err)
	}
	if err := SaveSnapshotRotate(r.CheckpointPath, snap); err != nil {
		return fmt.Errorf("pram: checkpoint at tick %d: %w", m.Tick(), err)
	}
	obsCheckpoint(m.Tick(), time.Since(start))
	return nil
}

// Machine readies the pooled machine for a run of alg against adv under
// cfg and returns it, for callers that need the machine handle (stepping
// manually, inspecting memory or per-processor state afterwards). The
// returned machine is owned by the Runner and is valid until the next
// Run/Machine/Close call.
func (r *Runner) Machine(cfg Config, alg Algorithm, adv Adversary) (*Machine, error) {
	if r.m == nil {
		m, err := New(cfg, alg, adv)
		if err != nil {
			return nil, err
		}
		r.m = m
		return m, nil
	}
	if err := r.m.Reset(cfg, alg, adv); err != nil {
		return nil, err
	}
	return r.m, nil
}

// Violations returns the adversary contract violations the pooled
// machine recorded during its most recent run (nil before any run).
func (r *Runner) Violations() []Violation {
	if r.m == nil {
		return nil
	}
	return r.m.Violations()
}

// Close drops the pooled machine. The Runner is reusable afterwards; the
// next run builds a fresh machine.
func (r *Runner) Close() {
	if r.m != nil {
		r.m.Close()
		r.m = nil
	}
}
