// Command perfbench is the repository benchmark. It drives the system
// only through its public entry points — pram.Runner and Machine,
// engine.ExecuteRun, jobs.Store, a freshly built cmd/pramd over loopback
// HTTP, and fabric.Coordinator with in-process Workers — on one of four
// seeded workloads, checks every result, and prints the metrics as the
// last line of standard output:
//
//	perfbench --workload paper-kernel --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 splits the time
// into an untraced and a traced half and prints the per-layer metrics,
// the layer self times, the tracing overhead and, for service-http, the
// layer ladder. run.sh builds this command and pramd from the tree and
// runs it; README.md documents the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the metrics a --trace 0 run prints, with their units.
var endToEnd = []struct{ name, unit string }{
	{"items_per_s", "1/s"},
	{"cpu_ns_per_cycle", "ns"},
	{"item_latency_p50_ms", "ms"},
	{"item_latency_p90_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a --trace 1 run prints, with their units.
// Every workload prints every one; a layer the workload does not reach
// reads 0.
var perLayer = []struct{ name, unit string }{
	{"pram.step_ns_p50", "ns"},
	{"pram.alloc_bytes_per_cycle", "B"},
	{"pram.ticks", "count"},
	{"pram.cycles", "count"},
	{"pram.cycles_killed", "count"},
	{"pram.batch_ticks_frac", "frac"},
	{"pram.batch_call_ns_p50", "ns"},
	{"runner.self_ns_per_cycle", "ns"},
	{"runner.checkpoint_ms_mean", "ms"},
	{"runner.checkpoints", "count"},
	{"adversary.decide_ns_per_tick", "ns"},
	{"adversary.quiet_ticks_frac", "frac"},
	{"adversary.events", "count"},
	{"writeall.work_per_cell", "cycles/cell"},
	{"writeall.sigma", "ratio"},
	{"sink.events", "count"},
	{"sink.bytes", "B"},
	{"sink.ns_per_event", "ns"},
	{"engine.self_ms_per_item", "ms"},
	{"jobs.queue_wait_ms_p50", "ms"},
	{"jobs.run_ms_p50", "ms"},
	{"jobs.self_ms_per_item", "ms"},
	{"jobs.dir_bytes_per_item", "B"},
	{"pramd.request_ms_p50.submit", "ms"},
	{"pramd.request_ms_p50.status", "ms"},
	{"pramd.request_ms_p50.result", "ms"},
	{"pramd.request_ms_p50.list", "ms"},
	{"pramd.events_stream_ms_p50", "ms"},
	{"pramd.self_ms_per_item", "ms"},
	{"pramd.bytes_per_item", "B"},
	{"fabric.lease_us_p50", "us"},
	{"fabric.complete_us_p50", "us"},
	{"fabric.useful_frac", "frac"},
	{"fabric.worker_idle_frac", "frac"},
	{"fabric.replay_ms", "ms"},
	{"fabric.leases", "count"},
	{"fabric.commits", "count"},
	{"fabric.retries", "count"},
	{"fabric.duplicate_commits", "count"},
	{"ladder.runner_ms_per_item", "ms"},
	{"ladder.engine_ms_per_item", "ms"},
	{"ladder.jobs_ms_per_item", "ms"},
	{"ladder.pramd_ms_per_item", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.heap_peak_mb", "MB"},
	{"host.steal_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(env *env) workload{
	"paper-kernel": newPaperKernel,
	"bigN-batched": newBigN,
	"service-http": newService,
	"fabric-sweep": newFabric,
}

// env is what a workload gets from the command line.
type env struct {
	seed  int64
	pramd string // pramd binary
	work  string // scratch directory for this run, removed at exit
	log   func(format string, args ...any)
}

// workload is one seeded closed-loop workload.
type workload interface {
	// setup prepares the workload, timing each repetition of its set-up;
	// it returns the set-up times in seconds.
	setup(ctx context.Context) ([]float64, error)
	// warmup runs items untimed, filling caches and recording the
	// reference statistics later items are checked against.
	warmup(ctx context.Context) error
	// measure runs whole passes of items until d has elapsed — the
	// clock is checked only between passes, so every phase holds the
	// same mix of items. With a tracer it also records spans and fills
	// p.layers.
	measure(ctx context.Context, d time.Duration, tr *tracer) (*phase, error)
	// workerPID is the process doing the work: 0 for this one.
	workerPID() int
	// digest summarizes the pass's simulated statistics.
	digest() string
	close()
}

// phase is the outcome of one measured phase.
type phase struct {
	attempted, failed int
	latMs             []float64 // per verified item
	cycles            int64     // Σ S over verified items
	wall, cpu         time.Duration
	steal             float64
	allocBytes        uint64
	gcCycles          uint32
	gcPause           time.Duration
	windows           []window           // one per pass
	setups            []float64          // set-ups repeated inside the phase, in seconds
	layers            map[string]float64 // traced phases only
	notes             []string           // extra report lines
}

// meter measures a phase's wall time, CPU time (this process plus the
// worker child, if any), host steal and Go runtime activity, in total and
// per window: a pass of items, or a fabric round.
type meter struct {
	child     int
	start     time.Time
	cpu0      time.Duration
	childCPU0 time.Duration
	host0     hostCPU
	mem0      runtime.MemStats
	last      window  // totals at the previous mark
	lastHost  hostCPU // host reading at the previous mark
}

// window is one pass's share of a phase.
type window struct {
	wall, cpu time.Duration
	items     int // verified items; their latencies are latMs[first:first+items]
	first     int
	cycles    int64
	steal     float64 // host steal share during the window
}

// cpu is the CPU time used so far by this process and the worker child.
func (m *meter) cpu() time.Duration {
	c := cpuSelf()
	if m.child != 0 {
		cc, _ := cpuOf(m.child)
		c += cc - m.childCPU0
	}
	return c - m.cpu0
}

// totals are the phase's totals so far.
func (m *meter) totals(p *phase) window {
	return window{wall: time.Since(m.start), cpu: m.cpu(), items: len(p.latMs), cycles: p.cycles}
}

// mark closes a window at the phase's current totals.
func (m *meter) mark(p *phase) {
	now, host := m.totals(p), readHostCPU()
	p.windows = append(p.windows, window{
		wall: now.wall - m.last.wall, cpu: now.cpu - m.last.cpu,
		items: now.items - m.last.items, first: m.last.items, cycles: now.cycles - m.last.cycles,
		steal: stealFrac(m.lastHost, host),
	})
	m.last, m.lastHost = now, host
}

// skip starts the next window now, leaving what ran since the last mark
// (a set-up repetition between passes) out of every window.
func (m *meter) skip(p *phase) { m.last, m.lastHost = m.totals(p), readHostCPU() }

func startMeter(child int) *meter {
	m := &meter{child: child}
	runtime.ReadMemStats(&m.mem0)
	m.host0 = readHostCPU()
	m.lastHost = m.host0
	if child != 0 {
		m.childCPU0, _ = cpuOf(child)
	}
	m.cpu0 = cpuSelf()
	m.start = time.Now()
	return m
}

func (m *meter) stop(p *phase) error {
	p.wall = time.Since(m.start)
	p.cpu = cpuSelf() - m.cpu0
	if m.child != 0 {
		c, err := cpuOf(m.child)
		if err != nil {
			return fmt.Errorf("read worker CPU: %w", err)
		}
		p.cpu += c - m.childCPU0
	}
	p.steal = stealFrac(m.host0, readHostCPU())
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	p.allocBytes = mem.TotalAlloc - m.mem0.TotalAlloc
	p.gcCycles = mem.NumGC - m.mem0.NumGC
	p.gcPause = time.Duration(mem.PauseTotalNs - m.mem0.PauseTotalNs)
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper-kernel, bigN-batched, service-http, fabric-sweep")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1: traced run printing per-layer metrics")
	pramd := fs.String("pramd", filepath.Join(".bench_build", "pramd"), "pramd binary built from the tree under test")
	workRoot := fs.String("work", filepath.Join(".bench_build", "work"), "scratch directory root")
	setupChild := fs.Bool("setup-child", false, "time one kernel-workload set-up in this process, print its seconds and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mk, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *setupChild {
		kw, ok := mk(&env{seed: *seed}).(*kernelWorkload)
		if !ok {
			return fmt.Errorf("--setup-child is for the kernel workloads, not %q", *name)
		}
		d, err := kw.setupOnce()
		if err != nil {
			return err
		}
		kw.close()
		fmt.Println(d.Seconds())
		return nil
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(*workRoot, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(*workRoot, *name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	e := &env{seed: *seed, pramd: *pramd, work: work, log: func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}}
	ctx := context.Background()
	w := mk(e)
	defer w.close()

	setups, err := w.setup(ctx)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	if err := w.warmup(ctx); err != nil {
		return fmt.Errorf("warmup: %w", err)
	}
	d := time.Duration(*seconds) * time.Second
	if *trace == 1 {
		d /= 2
	}
	runtime.GC()
	ph, err := w.measure(ctx, d, nil)
	if err != nil {
		return err
	}
	var traced *phase
	var tr *tracer
	if *trace == 1 {
		runtime.GC()
		tr = newTracer()
		if traced, err = w.measure(ctx, d, tr); err != nil {
			return err
		}
	}
	setups = append(setups, ph.setups...)
	rssKB, err := peakRSSKB(w.workerPID())
	if err != nil {
		return err
	}

	out, problems := endToEndMetrics(ph, setups, rssKB)
	if *trace == 1 {
		problems = nil // the traced run reports per-layer metrics only
	}
	rep := &strings.Builder{}
	fmt.Fprintf(rep, "workload %s seed %d: %d items in %.2f s, %d failed, digest %s\n",
		*name, *seed, ph.attempted, ph.wall.Seconds(), ph.failed, w.digest())
	fmt.Fprintf(rep, "  failed_frac %.4g, host.steal_frac %.4f, setup_s median of %d: %v\n",
		float64(ph.failed)/float64(max(ph.attempted, 1)), ph.steal, len(setups), roundAll(setups))
	for _, n := range ph.notes {
		fmt.Fprintf(rep, "  %s\n", n)
	}
	attempted, failed := ph.attempted, ph.failed
	if traced != nil {
		attempted += traced.attempted
		failed += traced.failed
		out = layerMetrics(ph, traced, w.workerPID() == 0)
		layers := tr.selfTimes()
		fmt.Fprintf(rep, "traced half: %d items in %.2f s; tracing overhead %.1f%% CPU per cycle\n",
			traced.attempted, traced.wall.Seconds(), 100*out["trace.overhead_frac"].Value)
		for _, n := range traced.notes {
			fmt.Fprintf(rep, "  %s\n", n)
		}
		fmt.Fprintf(rep, "  %-28s %10s %14s %14s\n", "layer", "calls", "total", "self")
		for _, l := range layers {
			fmt.Fprintf(rep, "  %-28s %10d %14s %14s\n", l.Name, l.Calls, fmtDur(l.Total), fmtDur(l.Self))
		}
		path := filepath.Join(filepath.Dir(*workRoot), fmt.Sprintf("trace-%s-seed%d.jsonl", *name, *seed))
		if err := tr.writeJSONL(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(rep, "  spans written to %s\n", path)
	}
	for _, p := range problems {
		fmt.Fprintf(rep, "  refused: %s\n", p)
	}
	fmt.Fprint(os.Stderr, rep.String())
	if len(problems) > 0 {
		return errors.New("a percentile was refused; the run is too short for the metric")
	}
	// The simulated-statistics digest goes to standard output as well, on
	// the line before the result, so that runs at one seed can be
	// compared by machine: it must be the same in every one of them.
	line, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Digest   string `json:"digest"`
	}{*name, *seed, w.digest()})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	line, err = json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, attempted, failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEndMetrics computes the --trace 0 metrics of an untraced phase.
// A refused percentile is returned as a problem.
func endToEndMetrics(ph *phase, setups []float64, rssKB int64) (map[string]metric, []string) {
	var problems []string
	out := map[string]metric{}
	set := func(name string, v float64) {
		for _, m := range endToEnd {
			if m.name == name {
				out[name] = metric{Value: v, Unit: m.unit}
				return
			}
		}
		panic("unlisted metric " + name)
	}
	// Rates are medians over the calm passes, so a pass slowed by a burst
	// of host contention does not move them; latencies are those of the
	// calm passes' items, unless they are too few for a p90.
	calm := calmWindows(ph.windows)
	var rates, cpus, lat []float64
	for _, w := range calm {
		rates = append(rates, float64(w.items)/w.wall.Seconds())
		cpus = append(cpus, float64(w.cpu.Nanoseconds())/float64(max(w.cycles, 1)))
		lat = append(lat, ph.latMs[w.first:w.first+w.items]...)
	}
	if len(lat) < 10*minBeyond {
		lat = ph.latMs
	}
	set("items_per_s", median(rates))
	set("cpu_ns_per_cycle", median(cpus))
	ph.notes = append(ph.notes,
		fmt.Sprintf("calm passes %d of %d (host steal per pass %s); latencies from %d of %d items",
			len(calm), len(ph.windows), spreadOf(steals(ph.windows)), len(lat), len(ph.latMs)),
		fmt.Sprintf("calm passes: items/s %s, CPU ns/cycle %s; whole phase %.4g items/s, %.4g ns/cycle",
			spreadOf(rates), spreadOf(cpus), float64(len(ph.latMs))/ph.wall.Seconds(), float64(ph.cpu.Nanoseconds())/float64(max(ph.cycles, 1))),
		"every pass, steal:items/s:CPU ns/cycle: "+passList(ph.windows))
	for _, q := range []struct {
		name string
		q    float64
	}{{"item_latency_p50_ms", 0.5}, {"item_latency_p90_ms", 0.9}} {
		p, err := percentile(lat, q.q)
		if err != nil {
			problems = append(problems, q.name+": "+err.Error())
		}
		ph.notes = append(ph.notes, fmt.Sprintf("%s = %.3f (n=%d, %d beyond)", q.name, p.Value, p.Samples, p.Beyond))
		set(q.name, p.Value)
	}
	set("setup_s", median(setups))
	set("peak_rss_mb", float64(rssKB)/1024)
	return out, problems
}

// calmSteal is the host steal share up to which a pass counts as calm.
// On the two-vCPU reference machine every 1% of the host's CPU stolen
// slows a pass by about 2.5%.
const calmSteal = 0.01

// calmWindows returns the passes during which the hypervisor took the
// least of the host's CPU: those whose steal share is at most the larger
// of calmSteal and the median pass's. On a quiet host that is nearly
// every pass. Other guests on the host now and then take a fifth or
// more of its CPU for minutes, which slows every pass it covers by a
// third or more; then these are the calmer half of the passes, so a run
// such a burst covers in part reads like one it missed. Steal is the
// host's doing, not the program's, so the choice does not depend on how
// fast the program ran.
func calmWindows(ws []window) []window {
	limit := max(calmSteal, median(steals(ws)))
	var out []window
	for _, w := range ws {
		if w.steal <= limit {
			out = append(out, w)
		}
	}
	return out
}

// passList prints each pass's steal share, rate and CPU per cycle.
func passList(ws []window) string {
	var b strings.Builder
	for _, w := range ws {
		fmt.Fprintf(&b, "%.3f:%.4g:%.4g ", w.steal, float64(w.items)/w.wall.Seconds(), float64(w.cpu.Nanoseconds())/float64(max(w.cycles, 1)))
	}
	return strings.TrimSpace(b.String())
}

func steals(ws []window) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = w.steal
	}
	return out
}

// layerMetrics assembles the --trace 1 metrics from the traced phase's
// layer values, the allocation rate of the untraced phase (which the
// tracer's own allocations would distort), the Go runtime figures when
// the work runs in this process, and the tracing overhead.
func layerMetrics(untraced, traced *phase, inProcess bool) map[string]metric {
	out := map[string]metric{}
	for _, m := range perLayer {
		out[m.name] = metric{Value: traced.layers[m.name], Unit: m.unit}
	}
	put := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[name] = metric{Value: v, Unit: out[name].Unit}
	}
	if inProcess {
		put("pram.alloc_bytes_per_cycle", float64(untraced.allocBytes)/float64(max(untraced.cycles, 1)))
		put("runtime.gc_cycles", float64(traced.gcCycles))
		put("runtime.gc_pause_ms", float64(traced.gcPause)/1e6)
	}
	put("host.steal_frac", traced.steal)
	un := float64(untraced.cpu) / float64(max(untraced.cycles, 1))
	tc := float64(traced.cpu) / float64(max(traced.cycles, 1))
	put("trace.overhead_frac", tc/un-1)
	return out
}

// p50 is the median of nanosecond samples divided by div, or 0 when the
// percentile is refused for want of samples.
func p50(samplesNs []float64, div float64) float64 {
	p, err := percentile(samplesNs, 0.5)
	if err != nil {
		return 0
	}
	return p.Value / div
}

// spreadOf prints min / median / max.
func spreadOf(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("%.4g / %.4g / %.4g", s[0], median(s), s[len(s)-1])
}

func roundAll(xs []float64) []string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := make([]string, len(s))
	for i, x := range s {
		out[i] = fmt.Sprintf("%.5f", x)
	}
	return out
}
