package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/pram"
)

// tracer keeps the traced run's spans in memory and writes them out when
// the run ends. A nil *tracer records nothing, so the untraced path pays
// one nil check per call site.
//
// Coarse layers (an item, an HTTP request, a Store call, ExecuteRun, a
// transport verb) get one span per call. Per-tick layers (Machine.Step,
// TickBatch, the wrapped Decide, the wrapped sink) run thousands of times
// per item, so each gets one aggregate node per parent holding the call
// count and the summed duration; their per-call durations are kept as
// samples for percentiles.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	nodes   []node
	samples map[string][]float64 // per-call ns, by layer name
}

// node is a span (Calls = 1, Start/End set) or an aggregate of calls of
// one layer under one parent (Start/End span the first to last call).
type node struct {
	ID     int32  `json:"id"`
	Item   int64  `json:"item"`
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls"`
	Ns     int64  `json:"ns"`
}

// maxSamples caps the per-layer sample set so a long traced run cannot
// grow the tracer without bound (16 MiB of float64 per layer).
const maxSamples = 1 << 21

const noParent = -1

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: make(map[string][]float64)}
}

// begin opens a span and returns its ID.
func (t *tracer) begin(item int64, name string, parent int32) int32 {
	if t == nil {
		return noParent
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{ID: id, Item: item, Name: name, Parent: parent, Start: now, Calls: 1})
	return id
}

// record adds a finished span that started at start and lasted d, and
// returns its ID.
func (t *tracer) record(item int64, name string, parent int32, start time.Time, d time.Duration) int32 {
	if t == nil {
		return noParent
	}
	from := int64(start.Sub(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{ID: id, Item: item, Name: name, Parent: parent, Start: from, End: from + int64(d), Calls: 1, Ns: int64(d)})
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	n := &t.nodes[id]
	n.End = now
	n.Ns = now - n.Start
}

// agg opens an aggregate node for per-call timings of layer name under
// parent; add feeds it.
func (t *tracer) agg(item int64, name string, parent int32) int32 {
	if t == nil {
		return noParent
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{ID: id, Item: item, Name: name, Parent: parent, Start: now, End: now})
	return id
}

// add records one call of duration d into aggregate id.
func (t *tracer) add(id int32, d time.Duration) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	n := &t.nodes[id]
	n.Calls++
	n.Ns += int64(d)
	n.End = now
	t.sampleLocked(n.Name, float64(d))
}

// sample records one duration for layer name without a node (used for
// spans whose percentile is reported).
func (t *tracer) sample(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sampleLocked(name, float64(d))
}

func (t *tracer) sampleLocked(name string, ns float64) {
	if s := t.samples[name]; len(s) < maxSamples {
		t.samples[name] = append(s, ns)
	}
}

// samplesOf returns the recorded per-call durations of layer name in ns.
func (t *tracer) samplesOf(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.samples[name]
}

// layerTime is one layer's share of the traced run.
type layerTime struct {
	Name  string
	Calls int64
	Total time.Duration // summed duration of the layer's nodes
	Self  time.Duration // Total minus the time its child nodes cover
}

// selfTimes sums, per layer name, each node's duration and its self
// time: the duration minus the durations of its children. Children of
// one node never overlap (every layer is entered from one goroutine per
// item), so their durations add.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.nodes))
	for _, n := range t.nodes {
		if n.Parent >= 0 {
			child[n.Parent] += n.Ns
		}
	}
	by := map[string]*layerTime{}
	for i, n := range t.nodes {
		l := by[n.Name]
		if l == nil {
			l = &layerTime{Name: n.Name}
			by[n.Name] = l
		}
		l.Calls += n.Calls
		l.Total += time.Duration(n.Ns)
		l.Self += time.Duration(n.Ns - child[i])
	}
	out := make([]layerTime, 0, len(by))
	for _, l := range by {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// selfOf is the self time of layer name (0 if it has no nodes).
func selfOf(layers []layerTime, name string) layerTime {
	for _, l := range layers {
		if l.Name == name {
			return l
		}
	}
	return layerTime{Name: name}
}

// writeJSONL writes every node as one JSON line to path.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, n := range t.nodes {
		if err := enc.Encode(n); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedAdversary wraps an adversary to time and count its Decide calls.
// It forwards Quiescence, so TickBatch engages exactly as it does under
// the bare adversary, and Snapshotter, so checkpoints keep working.
type timedAdversary struct {
	inner pram.Adversary
	tr    *tracer
	node  int32 // aggregate the next Decide calls feed

	calls  int64         // Decide calls: the ticks not covered by quiet windows
	active int64         // calls that failed or restarted someone
	events int64         // failures + restarts requested
	ns     time.Duration // time inside Decide
}

func (a *timedAdversary) Name() string { return a.inner.Name() }

func (a *timedAdversary) Decide(v *pram.View) pram.Decision {
	start := time.Now()
	d := a.inner.Decide(v)
	el := time.Since(start)
	a.tr.add(a.node, el)
	a.ns += el
	a.calls++
	if ev := len(d.Failures) + len(d.Restarts); ev > 0 {
		a.active++
		a.events += int64(ev)
	}
	return d
}

// QuiescentFor forwards the inner adversary's claim; 0 (per-tick
// stepping) when it makes none.
func (a *timedAdversary) QuiescentFor(tick int) int {
	if q, ok := a.inner.(pram.Quiescence); ok {
		return q.QuiescentFor(tick)
	}
	return 0
}

// SnapshotState forwards to a snapshotting inner adversary; a stateless
// one has nothing to save.
func (a *timedAdversary) SnapshotState() []pram.Word {
	if s, ok := a.inner.(pram.Snapshotter); ok {
		return s.SnapshotState()
	}
	return nil
}

func (a *timedAdversary) RestoreState(state []pram.Word) error {
	if s, ok := a.inner.(pram.Snapshotter); ok {
		return s.RestoreState(state)
	}
	return nil
}

// timedSink wraps the sink the engine layer writes to, timing every event
// delivery.
type timedSink struct {
	inner  pram.Sink
	tr     *tracer
	node   int32
	events int64
	ns     time.Duration // time inside the wrapped sink
}

func (s *timedSink) CycleDone(ev pram.CycleEvent) {
	start := time.Now()
	s.inner.CycleDone(ev)
	s.done(start)
}

func (s *timedSink) TickDone(ev pram.TickEvent) {
	start := time.Now()
	s.inner.TickDone(ev)
	s.done(start)
}

func (s *timedSink) RunDone(ev pram.RunEvent) {
	start := time.Now()
	s.inner.RunDone(ev)
	s.done(start)
}

func (s *timedSink) done(start time.Time) {
	d := time.Since(start)
	s.tr.add(s.node, d)
	s.ns += d
	s.events++
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// timedTransport sits between a fabric Worker and its coordinator. It
// always records each task's latency, from the lease that hands it out
// to the acknowledged commit; with a tracer it also records a span per
// transport verb.
type timedTransport struct {
	inner    fabric.Transport
	tr       *tracer
	itemBase int64 // item IDs of this transport's tasks start here

	// onCommit, if set, runs after every successful commit.
	onCommit func()

	mu         sync.Mutex
	leased     map[string]leaseInfo // by lease ID
	done       []taskDone
	busy       time.Duration // summed lease-to-report time across workers
	leases     int
	lastCommit time.Time
}

type leaseInfo struct {
	start time.Time     // Lease call start
	lease time.Duration // Lease call duration
	item  int64
}

type taskDone struct {
	key     string
	latency time.Duration
}

func newTimedTransport(inner fabric.Transport, tr *tracer, itemBase int64) *timedTransport {
	return &timedTransport{inner: inner, tr: tr, itemBase: itemBase, leased: make(map[string]leaseInfo)}
}

func (t *timedTransport) Lease(workerID string) (fabric.LeaseReply, error) {
	start := time.Now()
	r, err := t.inner.Lease(workerID)
	d := time.Since(start)
	if err != nil || r.Task == nil {
		return r, err
	}
	t.mu.Lock()
	t.leased[r.LeaseID] = leaseInfo{start: start, lease: d, item: t.itemBase + int64(t.leases)}
	t.leases++
	t.mu.Unlock()
	t.tr.sample("fabric.Lease", d)
	return r, nil
}

func (t *timedTransport) Heartbeat(leaseID string) error { return t.inner.Heartbeat(leaseID) }

func (t *timedTransport) Complete(leaseID, taskKey string, result json.RawMessage) error {
	start := time.Now()
	err := t.inner.Complete(leaseID, taskKey, result)
	end := time.Now()
	t.tr.sample("fabric.Complete", end.Sub(start))
	t.mu.Lock()
	li, ok := t.leased[leaseID]
	if ok {
		delete(t.leased, leaseID)
		t.busy += end.Sub(li.start)
		if err == nil {
			t.done = append(t.done, taskDone{key: taskKey, latency: end.Sub(li.start)})
			t.lastCommit = end
		}
	}
	t.mu.Unlock()
	if ok && t.tr != nil {
		// The task span runs from the lease to the acknowledged commit;
		// its self time is the worker's execution of the task.
		task := t.tr.record(li.item, "fabric.task", noParent, li.start, end.Sub(li.start))
		t.tr.record(li.item, "fabric.Lease", task, li.start, li.lease)
		t.tr.record(li.item, "fabric.Complete", task, start, end.Sub(start))
	}
	if err == nil && t.onCommit != nil {
		t.onCommit()
	}
	return err
}

func (t *timedTransport) Fail(leaseID, taskKey, cause string) error {
	err := t.inner.Fail(leaseID, taskKey, cause)
	t.mu.Lock()
	defer t.mu.Unlock()
	if li, ok := t.leased[leaseID]; ok {
		delete(t.leased, leaseID)
		t.busy += time.Since(li.start)
	}
	return err
}

// fmtDur prints a duration in milliseconds with three decimals.
func fmtDur(d time.Duration) string { return fmt.Sprintf("%.3f ms", float64(d)/1e6) }
