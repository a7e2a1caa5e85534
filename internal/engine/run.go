package engine

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"

	failstop "repro"
	"repro/internal/adversary"
	"repro/internal/pram"
)

// RunOptions carries per-invocation wiring that is not part of the
// spec: extra sinks (a daemon's event stream), warning/log routing, and
// the job service's crash-recovery resume. The zero value is usable.
type RunOptions struct {
	// Sink, if non-nil, receives the run's event stream in addition to
	// any sinks the spec configures (CSV, trace).
	Sink pram.Sink
	// Warnf receives human-readable degradation notices (checkpoint
	// fallback, failed pattern record). Nil prints to stderr, matching
	// the historical CLI behavior.
	Warnf func(format string, args ...any)
	// Logf routes the Runner's notices; nil means the Runner's default
	// (log.Printf).
	Logf func(format string, args ...any)
	// Resume, when the spec configures checkpointing, resumes from the
	// newest loadable generation at CheckpointPath instead of starting
	// fresh. Unlike RestorePath it is best-effort: with no loadable
	// checkpoint (none written yet, or all generations corrupt) the run
	// starts from scratch, which determinism makes merely slower, never
	// wrong. This is the job service's crash-recovery path.
	Resume bool
}

func (o RunOptions) warnf(format string, args ...any) {
	if o.Warnf != nil {
		o.Warnf(format, args...)
		return
	}
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// RunResult is the outcome of one Write-All run.
type RunResult struct {
	// Algorithm and Adversary are the display names of the constructed
	// pair (the adversary's may embed parameters).
	Algorithm string `json:"algorithm"`
	Adversary string `json:"adversary"`
	// N and P are the effective sizes (a restore overrides the spec's).
	N int `json:"n"`
	P int `json:"p"`
	// Metrics is the paper's accounting for the run.
	Metrics failstop.Metrics `json:"metrics"`
	// Violations records adversary contract breaches observed during
	// the run; they are diagnostics, reported whether or not the run
	// completed.
	Violations []pram.Violation `json:"violations,omitempty"`
	// ResumedFromTick is the snapshot tick the run restarted from
	// (0 for a fresh run).
	ResumedFromTick int `json:"resumed_from_tick,omitempty"`
}

// CanResume reports whether path holds a loadable checkpoint (current
// or previous generation). The job service uses it to decide between
// appending to and truncating a recovered job's event trace.
func CanResume(path string) bool {
	if path == "" {
		return false
	}
	_, _, err := pram.LoadSnapshotFallback(path)
	return err == nil
}

// ExecuteRun validates spec and drives one Write-All run to completion:
// restore or resume, sink construction (CSV profile, JSON-lines trace,
// any extra sink), algorithm/adversary construction (including pattern
// replay and recording), Runner checkpointing, and contract-violation
// collection. The RunResult is meaningful even on error — Violations
// and Metrics reflect whatever the run reached.
func ExecuteRun(ctx context.Context, spec RunSpec, opt RunOptions) (RunResult, error) {
	var res RunResult
	if err := spec.Validate(); err != nil {
		return res, err
	}

	// An explicit restore fixes the machine shape; the spec then only
	// selects the (matching) algorithm and adversary constructions.
	var snap *pram.Snapshot
	if spec.RestorePath != "" {
		var err error
		var loaded string
		snap, loaded, err = pram.LoadSnapshotFallback(spec.RestorePath)
		if err != nil {
			return res, err
		}
		if loaded != spec.RestorePath {
			opt.warnf("warning: checkpoint %s unusable; resuming from previous checkpoint %s (tick %d)",
				spec.RestorePath, loaded, snap.Tick)
		}
		spec.N, spec.P = snap.N, snap.P
	} else if opt.Resume && spec.CheckpointPath != "" {
		var err error
		var loaded string
		snap, loaded, err = pram.LoadSnapshotFallback(spec.CheckpointPath)
		switch {
		case err == nil:
			if loaded != spec.CheckpointPath {
				opt.warnf("warning: checkpoint %s unusable; resuming from previous checkpoint %s (tick %d)",
					spec.CheckpointPath, loaded, snap.Tick)
			}
			spec.N, spec.P = snap.N, snap.P
		case errors.Is(err, fs.ErrNotExist):
			// Crashed before the first checkpoint: run from scratch.
			snap = nil
		default:
			// Both generations corrupt: determinism makes a restart
			// from scratch correct, just slower.
			opt.warnf("warning: no loadable checkpoint at %s (%v); restarting from scratch", spec.CheckpointPath, err)
			snap = nil
		}
	}
	if spec.P == 0 {
		spec.P = spec.N
	}

	cfg := failstop.Config{N: spec.N, P: spec.P, MaxTicks: spec.MaxTicks, Packed: spec.Packed}

	var sinks pram.MultiSink
	if spec.CSVPath != "" {
		csvFile, err := os.Create(spec.CSVPath)
		if err != nil {
			return res, fmt.Errorf("create csv: %w", err)
		}
		defer csvFile.Close()
		fmt.Fprintln(csvFile, "tick,alive,completed,failures,restarts")
		sinks = append(sinks, pram.TickFunc(func(ev pram.TickEvent) {
			fmt.Fprintf(csvFile, "%d,%d,%d,%d,%d\n",
				ev.Tick, ev.Alive, ev.Completed, ev.Failures, ev.Restarts)
		}))
	}
	var jsonl *pram.JSONL
	if spec.TracePath != "" {
		traceFile, err := os.Create(spec.TracePath)
		if err != nil {
			return res, fmt.Errorf("create trace: %w", err)
		}
		defer traceFile.Close()
		buffered := bufio.NewWriter(traceFile)
		defer buffered.Flush()
		jsonl = pram.NewJSONL(buffered)
		jsonl.Ticks = spec.TraceTicksOnly
		if spec.TraceSample > 1 {
			jsonl.Sample = spec.TraceSample
		}
		sinks = append(sinks, jsonl)
	}
	if opt.Sink != nil {
		sinks = append(sinks, opt.Sink)
	}
	switch len(sinks) {
	case 0:
	case 1:
		cfg.Sink = sinks[0]
	default:
		cfg.Sink = sinks
	}

	alg, allowSnapshot, err := NewAlgorithm(spec.Algorithm, spec.Seed)
	if err != nil {
		return res, err
	}
	cfg.AllowSnapshot = allowSnapshot

	var adv failstop.Adversary
	if spec.ReplayPath != "" {
		f, err := os.Open(spec.ReplayPath)
		if err != nil {
			return res, fmt.Errorf("open pattern: %w", err)
		}
		pattern, err := adversary.ReadPattern(f)
		f.Close()
		if err != nil {
			return res, err
		}
		adv = scheduledAdversary(pattern)
	} else {
		adv, err = NewAdversary(spec, spec.N, spec.P)
		if err != nil {
			return res, err
		}
	}

	var recorder *adversary.Recorder
	if spec.RecordPath != "" {
		recorder = adversary.NewRecorder(adv)
		adv = recorder
	}

	every := spec.CheckpointEvery
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	runner := &pram.Runner{CheckpointPath: spec.CheckpointPath, CheckpointEvery: every, BatchTicks: spec.BatchTicks, Log: opt.Logf}
	defer runner.Close()

	res.Algorithm = alg.Name()
	res.Adversary = adv.Name()
	res.N, res.P = spec.N, spec.P

	var m failstop.Metrics
	if snap != nil {
		res.ResumedFromTick = snap.Tick
		m, err = runner.ResumeCtx(ctx, cfg, alg, adv, snap)
	} else {
		m, err = runner.RunCtx(ctx, cfg, alg, adv)
	}
	res.Metrics = m
	res.Violations = runner.Violations()
	if err != nil {
		// On interruption the Runner has already flushed a final
		// checkpoint (when checkpointing is configured), so the run is
		// resumable.
		return res, fmt.Errorf("%s under %s: %w", alg.Name(), adv.Name(), err)
	}
	if jsonl != nil && jsonl.Err() != nil {
		return res, fmt.Errorf("write trace: %w", jsonl.Err())
	}
	if recorder != nil {
		f, err := os.Create(spec.RecordPath)
		if err != nil {
			return res, fmt.Errorf("create pattern file: %w", err)
		}
		defer f.Close()
		if err := adversary.WritePattern(f, recorder.Pattern()); err != nil {
			return res, err
		}
	}
	return res, nil
}
