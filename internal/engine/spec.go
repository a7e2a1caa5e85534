// Package engine is the shared orchestration layer between the CLIs
// (cmd/writeall, cmd/experiments, cmd/pramsim), the job service
// (internal/jobs, cmd/pramd), and any future sweep fabric. It owns the
// wiring the thin clients used to duplicate: flag-shaped configuration
// becomes a validated, JSON-round-trippable spec, and Execute* drives
// machine construction, Runner pooling, checkpoint/resume, sink setup,
// journaling, and graceful shutdown for that spec.
//
// Three spec kinds cover the repo's workloads:
//
//   - RunSpec: one Write-All instance (what cmd/writeall runs),
//   - SweepSpec: the experiment tables (what cmd/experiments runs),
//   - SimSpec: a robust PRAM simulation (what cmd/pramsim runs).
//
// Specs are plain data — every field round-trips through encoding/json
// to an equal value — so they can be submitted over HTTP, persisted in
// a job directory, and replayed after a daemon restart.
package engine

import (
	"fmt"
	"time"

	failstop "repro"
	"repro/internal/adversary"
)

// RunSpec describes one Write-All run: the flag surface of cmd/writeall
// as data. The zero value is not runnable; at minimum Algorithm,
// Adversary, and N must be set (the CLI's flag defaults provide them).
type RunSpec struct {
	// Algorithm names the Write-All algorithm: X, V, combined, W,
	// oblivious, ACC, trivial, sequential.
	Algorithm string `json:"algorithm"`
	// Adversary names the failure adversary: none, random, thrashing,
	// rotating, halving, postorder, stalking, stalking-failstop.
	// Ignored when ReplayPath is set (the recorded pattern is the
	// adversary).
	Adversary string `json:"adversary"`
	// N is the Write-All array size; P the processor count (0 = N).
	N int `json:"n"`
	P int `json:"p,omitempty"`
	// Seed feeds the random adversary and ACC.
	Seed int64 `json:"seed,omitempty"`
	// FailProb and RestartProb parameterize the random adversary.
	FailProb    float64 `json:"fail_prob,omitempty"`
	RestartProb float64 `json:"restart_prob,omitempty"`
	// MaxEvents caps failure+restart events for the random adversary
	// (0 = unlimited).
	MaxEvents int64 `json:"max_events,omitempty"`
	// MaxTicks bounds the run (0 = the machine default).
	MaxTicks int `json:"max_ticks,omitempty"`
	// Packed opts into the bit-packed shared-memory layout for the
	// algorithm's Write-All prefix (Config.Packed); observationally
	// identical, ~64x smaller for binary-cell algorithms at N=10⁷-10⁸.
	Packed bool `json:"packed,omitempty"`
	// BatchTicks, when > 1, drives the run through the batched tick
	// kernel (Runner.BatchTicks): up to that many ticks advance per
	// round of bookkeeping while the adversary is quiescent, falling
	// back to per-tick stepping otherwise. 0 or 1 steps per tick.
	BatchTicks int `json:"batch_ticks,omitempty"`

	// CSVPath, when set, writes the per-tick CSV profile there.
	CSVPath string `json:"csv,omitempty"`
	// TracePath, when set, streams the event trace as JSON lines there.
	// TraceTicksOnly restricts the stream to tick and run events;
	// TraceSample keeps only every Nth cycle event (0 or 1 = all).
	TracePath      string `json:"trace,omitempty"`
	TraceTicksOnly bool   `json:"trace_ticks,omitempty"`
	TraceSample    int    `json:"trace_sample,omitempty"`
	// RecordPath records the inflicted failure pattern as JSON;
	// ReplayPath replays a recorded pattern (overriding Adversary).
	RecordPath string `json:"record,omitempty"`
	ReplayPath string `json:"replay,omitempty"`

	// CheckpointPath + CheckpointEvery enable periodic crash-consistent
	// checkpoints (CheckpointEvery 0 means the 1024-tick default when a
	// path is set). RestorePath resumes from an explicit snapshot file
	// instead of starting fresh.
	CheckpointPath  string `json:"checkpoint,omitempty"`
	CheckpointEvery int    `json:"checkpoint_every,omitempty"`
	RestorePath     string `json:"restore,omitempty"`
}

// DefaultCheckpointEvery is the checkpoint interval used when a
// RunSpec enables checkpointing without choosing one.
const DefaultCheckpointEvery = 1024

// Validate reports the first problem that would keep the spec from
// executing. Error strings for unknown algorithm/adversary names match
// the historical CLI messages, which are interface (tests grep them).
func (s RunSpec) Validate() error {
	if _, _, err := NewAlgorithm(s.Algorithm, s.Seed); err != nil {
		return err
	}
	if s.ReplayPath == "" {
		if err := checkAdversaryName(s.Adversary); err != nil {
			return err
		}
	}
	if s.N <= 0 {
		return fmt.Errorf("run spec: n must be positive, got %d", s.N)
	}
	if s.P < 0 {
		return fmt.Errorf("run spec: p must be non-negative, got %d", s.P)
	}
	if s.Adversary == "random" {
		if s.FailProb < 0 || s.FailProb > 1 {
			return fmt.Errorf("run spec: fail probability %v outside [0, 1]", s.FailProb)
		}
		if s.RestartProb < 0 || s.RestartProb > 1 {
			return fmt.Errorf("run spec: restart probability %v outside [0, 1]", s.RestartProb)
		}
	}
	if s.MaxEvents < 0 {
		return fmt.Errorf("run spec: max events must be non-negative, got %d", s.MaxEvents)
	}
	if s.MaxTicks < 0 {
		return fmt.Errorf("run spec: max ticks must be non-negative, got %d", s.MaxTicks)
	}
	if s.BatchTicks < 0 {
		return fmt.Errorf("run spec: batch ticks must be non-negative, got %d", s.BatchTicks)
	}
	if s.TraceSample < 0 {
		return fmt.Errorf("run spec: trace sample must be non-negative, got %d", s.TraceSample)
	}
	if s.CheckpointEvery < 0 {
		return fmt.Errorf("run spec: checkpoint interval must be non-negative, got %d", s.CheckpointEvery)
	}
	return nil
}

// SweepSpec describes one experiment sweep: the flag surface of
// cmd/experiments as data. The zero value runs every experiment at
// quick scale, serially, without journaling.
type SweepSpec struct {
	// Run selects experiment IDs (e.g. ["E4", "E13"]); empty means all.
	// Matching is case-insensitive, like the CLI flag.
	Run []string `json:"run,omitempty"`
	// Full selects the slow sizes recorded in EXPERIMENTS.md.
	Full bool `json:"full,omitempty"`
	// Parallel is the number of sweep points evaluated concurrently
	// (<= 0 selects GOMAXPROCS). Note this maps onto a process-global
	// setting; drivers running concurrent sweeps must serialize them
	// (internal/jobs does).
	Parallel int `json:"parallel,omitempty"`
	// Deadline bounds each sweep point's wall-clock time; overrunning
	// points degrade to error rows (0 disables).
	Deadline time.Duration `json:"deadline_ns,omitempty"`
	// CheckpointDir journals finished experiments to
	// CheckpointDir/journal.jsonl; Resume replays journaled experiments
	// and re-runs only the missing ones.
	CheckpointDir string `json:"checkpoint_dir,omitempty"`
	Resume        bool   `json:"resume,omitempty"`
}

// Validate reports the first problem that would keep the spec from
// executing.
func (s SweepSpec) Validate() error {
	if s.Resume && s.CheckpointDir == "" {
		return fmt.Errorf("-resume requires -checkpoint-dir")
	}
	if s.Deadline < 0 {
		return fmt.Errorf("sweep spec: deadline must be non-negative, got %v", s.Deadline)
	}
	return nil
}

// SimSpec describes one robust PRAM simulation: the flag surface of
// cmd/pramsim as data.
type SimSpec struct {
	// Program names the sample program: assign, reduce-sum, prefix-sum,
	// list-rank, odd-even-sort, matmul, broadcast, max-reduce,
	// tree-roots.
	Program string `json:"program"`
	// N is the simulated processor count (all programs but matmul);
	// K the matrix dimension (matmul).
	N int `json:"n,omitempty"`
	K int `json:"k,omitempty"`
	// P is the real processor count (0 or > program width clamps to
	// the program width).
	P int `json:"p,omitempty"`
	// Adversary is one of none, random, thrashing, rotating ("" =
	// none); Seed/FailProb/RestartProb parameterize random.
	Adversary   string  `json:"adversary,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	FailProb    float64 `json:"fail_prob,omitempty"`
	RestartProb float64 `json:"restart_prob,omitempty"`
	// Engine selects the Write-All engine: "vx" (default) or "x".
	Engine string `json:"engine,omitempty"`
	// PerStep collects Theorem 4.1's per-simulated-step measures
	// instead of validating and returning the final memory.
	PerStep bool `json:"per_step,omitempty"`
}

// Validate reports the first problem that would keep the spec from
// executing. Error strings for unknown program/adversary names match
// the historical CLI messages.
func (s SimSpec) Validate() error {
	if !knownProgram(s.Program) {
		return fmt.Errorf("unknown program %q", s.Program)
	}
	switch s.Adversary {
	case "", "none", "random", "thrashing", "rotating":
	default:
		return fmt.Errorf("unknown adversary %q", s.Adversary)
	}
	switch s.Engine {
	case "", "vx", "x":
	default:
		return fmt.Errorf("sim spec: unknown engine %q (want vx or x)", s.Engine)
	}
	if s.Program == "matmul" {
		if s.K <= 0 {
			return fmt.Errorf("sim spec: matmul needs k > 0, got %d", s.K)
		}
	} else if s.N <= 0 {
		return fmt.Errorf("sim spec: n must be positive, got %d", s.N)
	}
	if s.Adversary == "random" {
		if s.FailProb < 0 || s.FailProb > 1 {
			return fmt.Errorf("sim spec: fail probability %v outside [0, 1]", s.FailProb)
		}
		if s.RestartProb < 0 || s.RestartProb > 1 {
			return fmt.Errorf("sim spec: restart probability %v outside [0, 1]", s.RestartProb)
		}
	}
	return nil
}

// Algorithms returns the registered Write-All algorithm names, in the
// order the CLIs document them.
func Algorithms() []string {
	return []string{"X", "V", "combined", "W", "oblivious", "ACC", "trivial", "sequential"}
}

// Adversaries returns the registered adversary names for Write-All
// runs, in the order the CLIs document them.
func Adversaries() []string {
	return []string{"none", "random", "thrashing", "rotating", "halving", "postorder", "stalking", "stalking-failstop"}
}

// NewAlgorithm constructs the named algorithm. The second result
// reports whether the algorithm needs Config.AllowSnapshot (the
// unit-cost memory snapshot instruction of Theorem 3.2).
func NewAlgorithm(name string, seed int64) (failstop.Algorithm, bool, error) {
	switch name {
	case "X":
		return failstop.NewX(), false, nil
	case "V":
		return failstop.NewV(), false, nil
	case "combined":
		return failstop.NewCombined(), false, nil
	case "W":
		return failstop.NewW(), false, nil
	case "oblivious":
		return failstop.NewOblivious(), true, nil
	case "ACC":
		return failstop.NewACC(seed), false, nil
	case "trivial":
		return failstop.NewTrivial(), false, nil
	case "sequential":
		return failstop.NewSequential(), false, nil
	default:
		return nil, false, fmt.Errorf("unknown algorithm %q", name)
	}
}

// checkAdversaryName validates an adversary name without constructing
// it (construction wants the final N/P, which a restore may override).
func checkAdversaryName(name string) error {
	switch name {
	case "none", "random", "thrashing", "rotating", "halving", "postorder", "stalking", "stalking-failstop":
		return nil
	default:
		return fmt.Errorf("unknown adversary %q", name)
	}
}

// NewAdversary constructs the spec's adversary for the given final n
// and p (which may come from a restored snapshot rather than the spec).
func NewAdversary(s RunSpec, n, p int) (failstop.Adversary, error) {
	switch s.Adversary {
	case "none":
		return failstop.NoFailures(), nil
	case "random":
		if s.MaxEvents > 0 {
			return failstop.BudgetedRandomFailures(s.FailProb, s.RestartProb, s.Seed, s.MaxEvents), nil
		}
		return failstop.RandomFailures(s.FailProb, s.RestartProb, s.Seed), nil
	case "thrashing":
		return failstop.ThrashingAdversary(false), nil
	case "rotating":
		return failstop.ThrashingAdversary(true), nil
	case "halving":
		return failstop.HalvingAdversary(), nil
	case "postorder":
		return failstop.PostOrderAdversary(n, p), nil
	case "stalking":
		return failstop.StalkingAdversary(n, p, true), nil
	case "stalking-failstop":
		return failstop.StalkingAdversary(n, p, false), nil
	default:
		return nil, fmt.Errorf("unknown adversary %q", s.Adversary)
	}
}

// simAdversary constructs a SimSpec's adversary.
func simAdversary(s SimSpec) (failstop.Adversary, error) {
	switch s.Adversary {
	case "", "none":
		return failstop.NoFailures(), nil
	case "random":
		return failstop.RandomFailures(s.FailProb, s.RestartProb, s.Seed), nil
	case "thrashing":
		return failstop.ThrashingAdversary(false), nil
	case "rotating":
		return failstop.ThrashingAdversary(true), nil
	default:
		return nil, fmt.Errorf("unknown adversary %q", s.Adversary)
	}
}

// scheduledAdversary wraps adversary.NewScheduled for ExecuteRun's
// replay path; kept here so run.go reads top-down.
func scheduledAdversary(pattern []adversary.Event) failstop.Adversary {
	return adversary.NewScheduled(pattern)
}
