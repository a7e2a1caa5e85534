// Command writeall runs one Write-All instance - a chosen algorithm
// against a chosen adversary - and prints the paper's accounting measures.
//
// Usage:
//
//	writeall -alg X -adv halving -n 1024 -p 1024
//	writeall -alg combined -adv random -fail 0.2 -restart 0.5 -seed 7 -n 512 -p 64
//	writeall -alg X -adv random -snapshot run.snap -snapshot-every 256
//	writeall -alg X -adv random -restore run.snap
//
// Algorithms: X, V, combined, W, oblivious, ACC, trivial, sequential.
// Adversaries: none, random, thrashing, rotating, halving, postorder,
// stalking, stalking-failstop.
//
// The command is a thin client of internal/engine: flags parse into an
// engine.RunSpec, engine.ExecuteRun does the machine/Runner/sink
// wiring, and this file only formats the result.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/pram"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// cliOptions holds the flags that configure the process rather than the
// run: the observability surface.
type cliOptions struct {
	debugAddr string
	progress  time.Duration
}

// parseSpec maps the flag surface onto an engine.RunSpec plus the
// process-level options. It performs only flag-shaped validation; the
// spec's own Validate (inside ExecuteRun) covers the rest.
func parseSpec(args []string) (engine.RunSpec, cliOptions, error) {
	var spec engine.RunSpec
	var opts cliOptions
	fs := flag.NewFlagSet("writeall", flag.ContinueOnError)
	fs.StringVar(&spec.Algorithm, "alg", "X", "algorithm: X, V, combined, W, oblivious, ACC, trivial, sequential")
	fs.StringVar(&spec.Adversary, "adv", "none", "adversary: none, random, thrashing, rotating, halving, postorder, stalking, stalking-failstop")
	fs.IntVar(&spec.N, "n", 1024, "Write-All array size N")
	fs.IntVar(&spec.P, "p", 0, "processor count P (0 means P = N)")
	fs.Int64Var(&spec.Seed, "seed", 1, "random seed (random adversary, ACC)")
	fs.Float64Var(&spec.FailProb, "fail", 0.1, "per-tick failure probability (random adversary)")
	fs.Float64Var(&spec.RestartProb, "restart", 0.5, "per-tick restart probability (random adversary)")
	fs.Int64Var(&spec.MaxEvents, "events", 0, "cap on failure+restart events, 0 = unlimited (random adversary)")
	fs.IntVar(&spec.MaxTicks, "ticks", 0, "tick budget, 0 = default")
	fs.StringVar(&spec.CSVPath, "csv", "", "write a per-tick CSV profile (tick,alive,completed,failures,restarts) to this file")
	fs.StringVar(&spec.TracePath, "trace", "", "stream the run's event trace (cycle, tick, and run events) as JSON lines to this file")
	fs.BoolVar(&spec.TraceTicksOnly, "trace-ticks", false, "with -trace, restrict the stream to tick and run events")
	fs.IntVar(&spec.TraceSample, "trace-sample", 1, "with -trace, keep only every Nth cycle event (tick and run events are always kept)")
	fs.StringVar(&opts.debugAddr, "debug-addr", "", "serve /metrics, expvar and /debug/pprof on this address for the duration of the run (a bare :port binds localhost; empty disables)")
	fs.DurationVar(&opts.progress, "progress", 0, "print a live progress line (tick, done %, tick rate) to stderr at this interval, e.g. 2s (0 disables)")
	fs.BoolVar(&spec.Packed, "packed", false, "use the bit-packed shared-memory layout for the Write-All prefix (observationally identical; ~64x smaller at N=1e7-1e8)")
	fs.IntVar(&spec.BatchTicks, "batch", 0, "advance up to this many ticks per bookkeeping round while the adversary is quiescent (0 or 1 = per-tick stepping)")
	fs.StringVar(&spec.RecordPath, "record", "", "record the inflicted failure pattern as JSON to this file")
	fs.StringVar(&spec.ReplayPath, "replay", "", "replay a recorded failure pattern from this file (overrides -adv)")
	fs.StringVar(&spec.CheckpointPath, "snapshot", "", "checkpoint the machine to this file every -snapshot-every ticks (atomic overwrite)")
	fs.IntVar(&spec.CheckpointEvery, "snapshot-every", 1024, "checkpoint interval in ticks (with -snapshot)")
	fs.StringVar(&spec.RestorePath, "restore", "", "resume from a snapshot file instead of starting fresh (-n/-p come from the snapshot; -alg/-adv/-seed must match the original run)")
	if err := fs.Parse(args); err != nil {
		return spec, opts, err
	}
	if spec.CheckpointPath != "" && spec.CheckpointEvery < 1 {
		return spec, opts, fmt.Errorf("-snapshot-every must be >= 1, got %d", spec.CheckpointEvery)
	}
	if spec.TraceSample < 1 {
		return spec, opts, fmt.Errorf("-trace-sample must be >= 1, got %d", spec.TraceSample)
	}
	return spec, opts, nil
}

func run(ctx context.Context, args []string) error {
	spec, opts, err := parseSpec(args)
	if err != nil {
		return err
	}

	if opts.debugAddr != "" || opts.progress > 0 {
		reg := obs.Default()
		pram.EnableObs(reg)
		obs.CollectFaultInject(reg)
		if opts.debugAddr != "" {
			srv, err := obs.Serve(opts.debugAddr, reg)
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "debug server: http://%s/metrics (expvar at /debug/vars, pprof at /debug/pprof/)\n", srv.Addr())
		}
		if opts.progress > 0 {
			p := obs.StartProgress(reg, os.Stderr, opts.progress)
			defer p.Stop()
		}
	}

	res, runErr := engine.ExecuteRun(ctx, spec, engine.RunOptions{})
	// Adversary contract violations are diagnostics worth reporting
	// whether or not the run completed: they locate the offending tick.
	for _, v := range res.Violations {
		fmt.Fprintf(os.Stderr, "adversary contract violation: %s\n", v)
	}
	if runErr != nil {
		// On interruption the Runner has already flushed a final
		// checkpoint (when -snapshot is set), so the run is resumable
		// with -restore.
		return runErr
	}

	m := res.Metrics
	fmt.Printf("algorithm         %s\n", res.Algorithm)
	fmt.Printf("adversary         %s\n", res.Adversary)
	fmt.Printf("N, P              %d, %d\n", res.N, res.P)
	fmt.Printf("ticks             %d\n", m.Ticks)
	fmt.Printf("completed work S  %d\n", m.S())
	fmt.Printf("S' (with killed)  %d\n", m.SPrime())
	fmt.Printf("failures/restarts %d/%d  (|F| = %d)\n", m.Failures, m.Restarts, m.FSize())
	fmt.Printf("liveness vetoes   %d\n", m.Vetoes)
	fmt.Printf("overhead sigma    %.3f\n", m.Overhead())
	fmt.Printf("cycle maxima      %d reads, %d writes\n", m.MaxReads, m.MaxWrites)
	return nil
}
