package pram

import (
	"encoding/json"
	"io"
	"sync"
)

// CycleEvent describes the outcome of one processor's update-cycle attempt
// in one tick: whether it completed, where the adversary struck, and how
// many of its buffered writes committed. Events are emitted in PID order
// during the commit phase, so sinks never need locking.
type CycleEvent struct {
	// Tick is the clock value of the tick the attempt ran in.
	Tick int `json:"tick"`
	// PID identifies the processor.
	PID int `json:"pid"`
	// Fail is where the adversary struck (NoFailure if it survived).
	Fail FailPoint `json:"fail,omitempty"`
	// Started reports whether at least one instruction executed (the S'
	// accounting of Remark 2).
	Started bool `json:"started"`
	// Completed reports whether the whole cycle completed (charged to S).
	Completed bool `json:"completed"`
	// Writes is the number of committed shared-memory writes (the prefix
	// that landed before the fail point).
	Writes int `json:"writes"`
	// ArrayWrites is the number of committed writes into the Write-All
	// input region [0, N) - the cycle's direct contribution to the task.
	ArrayWrites int `json:"arrayWrites"`
	// Halted reports whether the processor exited the algorithm.
	Halted bool `json:"halted,omitempty"`
}

// TickEvent is the per-tick profile: the aggregate liveness and work of
// one synchronous step.
type TickEvent struct {
	// Tick is the clock value the event describes (before the tick ran).
	Tick int `json:"tick"`
	// Alive is the number of processors that attempted a cycle.
	Alive int `json:"alive"`
	// Completed is the number of cycles that completed this tick (the
	// tick's contribution to S).
	Completed int `json:"completed"`
	// Failures and Restarts are this tick's event counts.
	Failures int `json:"failures"`
	Restarts int `json:"restarts"`
}

// RunEvent is emitted once, when a run terminates (successfully or not).
type RunEvent struct {
	// Metrics is the final accounting.
	Metrics Metrics `json:"metrics"`
	// Err is the run's terminal error, nil on success.
	Err error `json:"-"`
}

// Sink observes a machine run. It is the single instrumentation seam of
// the simulator: per-cycle outcomes, per-tick profiles, and the run
// result all flow through it. The machine invokes every method from the
// commit phase of a tick - never concurrently - so implementations need
// no synchronization.
//
// A nil Config.Sink disables instrumentation at zero cost.
type Sink interface {
	// CycleDone is called once per attempted update cycle, in PID order,
	// after the tick's writes have committed.
	CycleDone(CycleEvent)
	// TickDone is called once per tick, after all CycleDone events.
	TickDone(TickEvent)
	// RunDone is called once, when the run completes or aborts.
	RunDone(RunEvent)
}

// TickFunc adapts a per-tick callback to the Sink interface, ignoring
// cycle- and run-level events. It replaces the old Config.Tracer hook.
type TickFunc func(TickEvent)

// CycleDone implements Sink as a no-op.
func (TickFunc) CycleDone(CycleEvent) {}

// TickDone implements Sink.
func (f TickFunc) TickDone(ev TickEvent) { f(ev) }

// RunDone implements Sink as a no-op.
func (TickFunc) RunDone(RunEvent) {}

// MultiSink fans events out to several sinks in order.
type MultiSink []Sink

// CycleDone implements Sink.
func (m MultiSink) CycleDone(ev CycleEvent) {
	for _, s := range m {
		s.CycleDone(ev)
	}
}

// TickDone implements Sink.
func (m MultiSink) TickDone(ev TickEvent) {
	for _, s := range m {
		s.TickDone(ev)
	}
}

// RunDone implements Sink.
func (m MultiSink) RunDone(ev RunEvent) {
	for _, s := range m {
		s.RunDone(ev)
	}
}

// ProcTracker accumulates per-processor work and progress counts from the
// cycle-event stream. It replaces the old Config.TrackPerProcessor mode:
// attach one via Config.Sink and read it after the run, e.g. for the load
// balance analysis of experiment E16.
type ProcTracker struct {
	work     []int64
	progress []int64
}

// NewProcTracker returns a tracker for p processors.
func NewProcTracker(p int) *ProcTracker {
	return &ProcTracker{work: make([]int64, p), progress: make([]int64, p)}
}

// CycleDone implements Sink. PIDs beyond the tracker's initial size grow
// the counters on demand: a tracker sized from N observes PIDs up to
// P−1 on modulo-PID runs (the Lemma 4.5 scenarios run P = 2N processors
// against N tree leaves), and restarted incarnations keep their original
// PID, so out-of-range events are legitimate, not a caller bug.
func (t *ProcTracker) CycleDone(ev CycleEvent) {
	if ev.PID < 0 {
		return
	}
	if ev.PID >= len(t.work) {
		t.work = growCounts(t.work, ev.PID+1)
		t.progress = growCounts(t.progress, ev.PID+1)
	}
	if ev.Completed {
		t.work[ev.PID]++
	}
	t.progress[ev.PID] += int64(ev.ArrayWrites)
}

// growCounts extends a counter slice to length n, preserving contents.
func growCounts(s []int64, n int) []int64 {
	if cap(s) >= n {
		return s[:n]
	}
	out := make([]int64, n)
	copy(out, s)
	return out
}

// TickDone implements Sink.
func (t *ProcTracker) TickDone(TickEvent) {}

// RunDone implements Sink.
func (t *ProcTracker) RunDone(RunEvent) {}

// Work returns each processor's completed-cycle count. The returned slice
// is a copy.
func (t *ProcTracker) Work() []int64 { return copyCounts(t.work) }

// Progress returns each processor's count of committed writes into the
// input region [0, N). The returned slice is a copy.
func (t *ProcTracker) Progress() []int64 { return copyCounts(t.progress) }

func copyCounts(src []int64) []int64 {
	out := make([]int64, len(src))
	copy(out, src)
	return out
}

// JSONL is a Sink that streams events as JSON lines: one object per
// event, tagged {"ev":"cycle"|"tick"|"run"}. cmd/writeall's -trace flag
// wires one to a file. Cycle events are verbose (P lines per tick); use
// Ticks to restrict the stream to tick and run events, or Sample to
// thin them.
//
// A JSONL serializes its writes internally, so one sink may be shared
// across machines running concurrently (a parallel sweep tracing to a
// single file) or polled with Err while a run is in flight. Events from
// a single machine still arrive in deterministic PID order; interleaving
// across machines is line-atomic but unordered. Configure Ticks and
// Sample before attaching the sink.
type JSONL struct {
	w io.Writer
	// Ticks, when set, suppresses cycle events.
	Ticks bool
	// Sample, when > 1, keeps only every Sample-th cycle event (the
	// 1st, the Sample+1-th, ...), so production-scale runs can trace at
	// a bounded file-growth rate. Tick and run events are never
	// sampled. Zero or one keeps every event.
	Sample int

	mu     sync.Mutex
	enc    *json.Encoder
	err    error
	cycles uint64 // cycle events seen, for sampling
}

// NewJSONL returns a sink writing JSON-lines events to w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: w, enc: json.NewEncoder(w)}
}

// CycleDone implements Sink.
func (j *JSONL) CycleDone(ev CycleEvent) {
	if j.Ticks {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	n := j.cycles
	j.cycles++
	if j.Sample > 1 && n%uint64(j.Sample) != 0 {
		return
	}
	j.writeLocked(struct {
		Ev string `json:"ev"`
		CycleEvent
	}{"cycle", ev})
}

// TickDone implements Sink.
func (j *JSONL) TickDone(ev TickEvent) {
	j.write(struct {
		Ev string `json:"ev"`
		TickEvent
	}{"tick", ev})
}

// RunDone implements Sink.
func (j *JSONL) RunDone(ev RunEvent) {
	line := struct {
		Ev string `json:"ev"`
		RunEvent
		Error string `json:"error,omitempty"`
	}{Ev: "run", RunEvent: ev}
	if ev.Err != nil {
		line.Error = ev.Err.Error()
	}
	j.write(line)
}

// Err returns the first write error, if any. The error is sticky: after
// the first failure the sink stops encoding entirely.
func (j *JSONL) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

func (j *JSONL) write(line any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.writeLocked(line)
}

// writeLocked encodes one event line; the caller holds j.mu. A sticky
// error short-circuits before any encoding work.
func (j *JSONL) writeLocked(line any) {
	if j.err != nil {
		return
	}
	j.err = j.enc.Encode(line)
}
