package failstop

import (
	"reflect"
	"testing"

	"repro/internal/pram"
)

// recSink records the full event stream of a run for trace comparison.
type recSink struct {
	cycles []pram.CycleEvent
	ticks  []pram.TickEvent
	runs   []runRecord
}

// runRecord flattens RunEvent's error for comparability.
type runRecord struct {
	metrics pram.Metrics
	err     string
}

func (r *recSink) CycleDone(ev pram.CycleEvent) { r.cycles = append(r.cycles, ev) }
func (r *recSink) TickDone(ev pram.TickEvent)   { r.ticks = append(r.ticks, ev) }
func (r *recSink) RunDone(ev pram.RunEvent) {
	rec := runRecord{metrics: ev.Metrics}
	if ev.Err != nil {
		rec.err = ev.Err.Error()
	}
	r.runs = append(r.runs, rec)
}

// runOutcome is one run's complete observable outcome: the equivalence
// suites (resume, pooled, packed, batched) compare two of them.
type runOutcome struct {
	metrics pram.Metrics
	mem     []Word
	trace   recSink
	err     string
}

// runMachine runs a fresh machine to completion (or error) and captures
// its outcome.
func runMachine(t *testing.T, mkAlg func() Algorithm, mkAdv func() Adversary, cfg Config) runOutcome {
	t.Helper()
	var out runOutcome
	cfg.Sink = &out.trace
	m, err := pram.New(cfg, mkAlg(), mkAdv())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer m.Close()
	out.metrics, err = m.Run()
	if err != nil {
		out.err = err.Error()
	}
	out.mem = m.Memory().CopyInto(nil)
	return out
}

// assertRunsEqual requires two outcomes to be bit-identical: error,
// metrics, final memory, and the tick, cycle and run event streams.
func assertRunsEqual(t *testing.T, label string, want, got runOutcome) {
	t.Helper()
	if want.err != got.err {
		t.Fatalf("%s: err = %q, want %q", label, got.err, want.err)
	}
	if want.metrics != got.metrics {
		t.Errorf("%s: metrics diverge:\nwant %+v\ngot  %+v", label, want.metrics, got.metrics)
	}
	if !reflect.DeepEqual(want.mem, got.mem) {
		t.Errorf("%s: final memory diverges", label)
	}
	if !reflect.DeepEqual(want.trace.ticks, got.trace.ticks) {
		t.Errorf("%s: tick traces diverge (want %d events, got %d)",
			label, len(want.trace.ticks), len(got.trace.ticks))
	}
	if !reflect.DeepEqual(want.trace.cycles, got.trace.cycles) {
		t.Errorf("%s: cycle traces diverge (want %d events, got %d)",
			label, len(want.trace.cycles), len(got.trace.cycles))
	}
	if !reflect.DeepEqual(want.trace.runs, got.trace.runs) {
		t.Errorf("%s: run events diverge: %+v vs %+v", label, want.trace.runs, got.trace.runs)
	}
}
