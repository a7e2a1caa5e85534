package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/pram"
	"repro/internal/writeall"
)

// serviceClients is the number of closed-loop HTTP clients, and
// pramd's -workers: one per vCPU of the two-vCPU reference machine.
const serviceClients = 2

// serviceCheckpointEvery is the job specs' checkpoint interval: short
// jobs still write several store-managed checkpoints each.
const serviceCheckpointEvery = 64

// servicePass is one pass of the service-http workload: 24 small run
// jobs of X, V and W at N = 2¹⁰ to 2¹² and P = 32 or 128, under no
// failures, random(0.1/0.5) and halving. Each job simulates 2k to 60k
// update cycles, a few milliseconds, so the sink, store and daemon layers
// dominate its latency. The jobs fall into three cost groups about twice
// to four times apart — 8 small, 10 medium, 6 large — so p50 lies inside
// the medium group and p90 inside the large one, where neither moves
// when a few jobs trade places. The seed picks the random adversary's
// streams and the order.
func servicePass(seed int64) []engine.RunSpec {
	pass := []struct {
		alg, adv string
		n, p     int
		copies   int
	}{
		{"V", "none", 1024, 128, 2}, {"W", "none", 1024, 128, 2}, {"W", "none", 1024, 32, 2}, {"V", "none", 2048, 128, 2},
		{"X", "none", 1024, 128, 3}, {"X", "none", 1024, 32, 3}, {"V", "random", 1024, 32, 2}, {"W", "none", 4096, 32, 2},
		{"X", "halving", 2048, 32, 2}, {"V", "halving", 2048, 32, 2}, {"X", "random", 2048, 32, 2},
	}
	var specs []engine.RunSpec
	for _, e := range pass {
		for c := 0; c < e.copies; c++ {
			spec := engine.RunSpec{Algorithm: e.alg, Adversary: e.adv, N: e.n, P: e.p, CheckpointEvery: serviceCheckpointEvery}
			if e.adv == "random" {
				spec.FailProb, spec.RestartProb = 0.1, 0.5
				spec.Seed = splitmix(uint64(seed)*1000 + uint64(200+len(specs)))
			}
			specs = append(specs, spec)
		}
	}
	shuffle(seed, specs)
	return specs
}

// referenceStats runs spec on a pooled Runner in this process, checks
// Write-All, and returns the statistics every service execution of the
// spec must reproduce.
func referenceStats(r *pram.Runner, spec engine.RunSpec) (stats, error) {
	alg, _, err := engine.NewAlgorithm(spec.Algorithm, spec.Seed)
	if err != nil {
		return stats{}, err
	}
	adv, err := engine.NewAdversary(spec, spec.N, spec.P)
	if err != nil {
		return stats{}, err
	}
	m, err := r.Machine(pram.Config{N: spec.N, P: spec.P}, alg, adv)
	if err != nil {
		return stats{}, err
	}
	met, err := m.RunCtx(context.Background())
	if err != nil {
		return stats{}, err
	}
	if !writeall.Verify(m.Memory(), spec.N) {
		return stats{}, fmt.Errorf("%s/%s N=%d: Write-All incomplete", spec.Algorithm, spec.Adversary, spec.N)
	}
	return statsOf(met), nil
}

// pramdProc is a pramd subprocess serving on a loopback port.
type pramdProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	dir    string // state directory
	logged chan struct{}
}

// startPramd launches bin on an ephemeral loopback port with a fresh
// state directory and waits until /healthz answers; it returns the
// process and the time from launch to the first healthy answer.
func startPramd(bin, dir string) (*pramdProc, time.Duration, error) {
	start := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-state-dir", dir, "-workers", fmt.Sprint(serviceClients))
	// Should this process die without stopping pramd, the kernel does.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start pramd: %w", err)
	}
	p := &pramdProc{cmd: cmd, dir: dir, logged: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(p.logged)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "serving on http://"); ok {
				a, _, _ := strings.Cut(rest, " ")
				select {
				case addr <- a:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		p.base = "http://" + a
	case <-p.logged:
		err := cmd.Wait()
		return nil, 0, fmt.Errorf("pramd exited before serving: %v", err)
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, 0, errors.New("pramd did not report its address within 30s")
	}
	for {
		resp, err := http.Get(p.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(start), nil
			}
		}
		if time.Since(start) > 30*time.Second {
			p.stop()
			return nil, 0, fmt.Errorf("pramd not healthy within 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM (pramd drains and exits 0), falls back to SIGKILL
// after ten seconds, and waits for the process and its log reader.
func (p *pramdProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() {
		_ = p.cmd.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-exited
	}
	<-p.logged
}

// client is one closed-loop HTTP client with its own connection pool.
type client struct {
	base  string
	hc    *http.Client
	bytes int64 // request and response bytes
	tr    *tracer
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

// call performs one request, records a span named "http."+verb under
// parent and a duration sample, and returns the body of a response with
// the wanted status.
func (c *client) call(item int64, parent int32, verb, method, path string, body []byte, want int) ([]byte, error) {
	start := time.Now()
	span := c.tr.begin(item, "http."+verb, parent)
	defer c.tr.end(span)
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.bytes += int64(len(body) + len(out))
	c.tr.sample("http."+verb, time.Since(start))
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// events follows a job's server-sent event stream to its end frame.
func (c *client) events(item int64, parent int32, id string) error {
	start := time.Now()
	span := c.tr.begin(item, "http.events", parent)
	defer c.tr.end(span)
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return fmt.Errorf("events %s: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events %s: status %d", id, resp.StatusCode)
	}
	r := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := r.ReadSlice('\n')
		c.bytes += int64(len(line))
		if bytes.Equal(line, []byte("event: end\n")) {
			c.tr.sample("http.events", time.Since(start))
			return nil
		}
		if errors.Is(err, bufio.ErrBufferFull) {
			continue
		}
		if err != nil {
			return fmt.Errorf("events %s: stream ended without an end frame: %w", id, err)
		}
	}
}

// runJob submits spec, follows its events to the end, fetches and
// decodes its result: the service item.
func (c *client) runJob(item int64, parent int32, spec engine.RunSpec) (string, engine.RunResult, error) {
	var res engine.RunResult
	body, err := json.Marshal(jobs.Spec{Kind: jobs.KindRun, Run: &spec})
	if err != nil {
		return "", res, err
	}
	raw, err := c.call(item, parent, "submit", http.MethodPost, "/v1/jobs", body, http.StatusCreated)
	if err != nil {
		return "", res, err
	}
	var job jobs.Job
	if err := json.Unmarshal(raw, &job); err != nil {
		return "", res, fmt.Errorf("decode submitted job: %w", err)
	}
	if err := c.events(item, parent, job.ID); err != nil {
		return job.ID, res, err
	}
	raw, err = c.call(item, parent, "result", http.MethodGet, "/v1/jobs/"+job.ID+"/result", nil, http.StatusOK)
	if err != nil {
		return job.ID, res, err
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		return job.ID, res, fmt.Errorf("decode result: %w", err)
	}
	return job.ID, res, nil
}

type serviceWorkload struct {
	e        *env
	specs    []engine.RunSpec
	ref      []stats
	proc     *pramdProc
	cls      []*client
	launches int
}

func newService(e *env) workload { return &serviceWorkload{e: e} }

func (w *serviceWorkload) digest() string { return digest(w.ref) }

func (w *serviceWorkload) workerPID() int {
	if w.proc == nil {
		return 0
	}
	return w.proc.cmd.Process.Pid
}

// stateDir returns a fresh pramd state directory.
func (w *serviceWorkload) stateDir() string {
	w.launches++
	return filepath.Join(w.e.work, fmt.Sprintf("pramd.%d", w.launches))
}

// launch times one more pramd launch → /healthz and stops that
// instance; the serving one is untouched.
func (w *serviceWorkload) launch() (time.Duration, error) {
	p, d, err := startPramd(w.e.pramd, w.stateDir())
	if err != nil {
		return 0, err
	}
	p.stop()
	return d, nil
}

func (w *serviceWorkload) close() {
	if w.proc != nil {
		w.proc.stop()
		w.proc = nil
	}
}

// setup launches pramd nine times, each on a fresh state directory,
// timing launch → /healthz; the last instance serves the run. Measured
// phases time one more launch after every pass (see loop), so the
// set-ups spread over the run and the host's drift averages out.
func (w *serviceWorkload) setup(ctx context.Context) ([]float64, error) {
	w.specs = servicePass(w.e.seed)
	var times []float64
	for rep := 0; rep < 9; rep++ {
		w.close()
		p, d, err := startPramd(w.e.pramd, w.stateDir())
		if err != nil {
			return nil, err
		}
		w.proc = p
		times = append(times, d.Seconds())
	}
	w.cls = nil
	for i := 0; i < serviceClients; i++ {
		w.cls = append(w.cls, newClient(w.proc.base))
	}
	return times, nil
}

// warmup computes the reference statistics in-process, then pushes one
// pass of jobs through pramd.
func (w *serviceWorkload) warmup(ctx context.Context) error {
	var r pram.Runner
	defer r.Close()
	w.ref = make([]stats, len(w.specs))
	for i, s := range w.specs {
		st, err := referenceStats(&r, s)
		if err != nil {
			return err
		}
		w.ref[i] = st
	}
	p, err := w.loop(ctx, 0, nil, 1)
	if err != nil {
		return err
	}
	if p.failed > 0 {
		return fmt.Errorf("%d of %d warm-up jobs failed", p.failed, p.attempted)
	}
	return nil
}

func (w *serviceWorkload) measure(ctx context.Context, d time.Duration, tr *tracer) (*phase, error) {
	p, err := w.loop(ctx, d, tr, 0)
	if err != nil || tr == nil {
		return p, err
	}
	if err := w.ladder(ctx, tr, p); err != nil {
		return nil, err
	}
	return p, nil
}

// serviceAcc gathers the clients' results under a lock.
type serviceAcc struct {
	mu     sync.Mutex
	p      *phase
	ticks  int64
	killed int64
	sumN   int64
	sumF   int64
	waitMs []float64 // job Started − Created
	runMs  []float64 // job Finished − Started
	bytes  int64
}

// loop runs the closed-loop clients pass by pass. With passes > 0 it
// runs that many passes untimed; otherwise whole passes until d has
// elapsed, marking one meter window per pass and timing one pramd
// launch between passes, outside every window.
func (w *serviceWorkload) loop(ctx context.Context, d time.Duration, tr *tracer, passes int) (*phase, error) {
	acc := &serviceAcc{p: &phase{}}
	for _, c := range w.cls {
		c.tr, c.bytes = tr, 0
	}
	var m *meter
	if passes == 0 {
		m = startMeter(w.workerPID())
	}
	end := time.Now().Add(d)
	for pass := 0; ; pass++ {
		if err := w.runPass(int64(pass*len(w.specs)), acc); err != nil {
			return nil, err
		}
		if passes > 0 && pass+1 == passes {
			break
		}
		m.mark(acc.p)
		if time.Now().After(end) {
			break
		}
		d, err := w.launch()
		if err != nil {
			return nil, err
		}
		acc.p.setups = append(acc.p.setups, d.Seconds())
		m.skip(acc.p)
	}
	p := acc.p
	if m == nil {
		return p, nil
	}
	if err := m.stop(p); err != nil {
		return nil, err
	}
	if tr == nil {
		return p, nil
	}
	for _, c := range w.cls {
		acc.bytes += c.bytes
	}
	p.layers = map[string]float64{
		"pram.ticks":                  float64(acc.ticks),
		"pram.cycles":                 float64(p.cycles),
		"pram.cycles_killed":          float64(acc.killed),
		"writeall.work_per_cell":      float64(p.cycles) / float64(acc.sumN),
		"writeall.sigma":              float64(p.cycles) / float64(acc.sumN+acc.sumF),
		"jobs.queue_wait_ms_p50":      p50(acc.waitMs, 1),
		"jobs.run_ms_p50":             p50(acc.runMs, 1),
		"pramd.request_ms_p50.submit": p50(tr.samplesOf("http.submit"), 1e6),
		"pramd.request_ms_p50.status": p50(tr.samplesOf("http.status"), 1e6),
		"pramd.request_ms_p50.result": p50(tr.samplesOf("http.result"), 1e6),
		"pramd.request_ms_p50.list":   p50(tr.samplesOf("http.list"), 1e6),
		"pramd.events_stream_ms_p50":  p50(tr.samplesOf("http.events"), 1e6),
		"pramd.bytes_per_item":        float64(acc.bytes) / float64(max(p.attempted, 1)),
	}
	dirBytes, dirs, err := jobDirBytes(w.proc.dir)
	if err != nil {
		return nil, err
	}
	p.layers["jobs.dir_bytes_per_item"] = float64(dirBytes) / float64(max(dirs, 1))
	return p, nil
}

// runPass runs one pass: each client takes the pass's next job, runs it
// as an item, then reads the job's record (and every eighth item the
// job list), until the pass is exhausted. The pass ends when both
// clients are done, so a meter window holds exactly one pass's jobs.
func (w *serviceWorkload) runPass(first int64, acc *serviceAcc) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, len(w.cls))
	for _, c := range w.cls {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(w.specs) {
					return
				}
				if err := w.item(c, first+int64(i), i, acc); err != nil {
					errc <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	return <-errc
}

// item runs spec idx of the pass as item n on client c: the job itself
// (timed: submit → events end → verified result), then the reads.
func (w *serviceWorkload) item(c *client, n int64, idx int, acc *serviceAcc) error {
	spec := w.specs[idx]
	start := time.Now()
	root := c.tr.begin(n, "item", noParent)
	id, res, err := c.runJob(n, root, spec)
	lat := time.Since(start)
	c.tr.end(root)
	ok := err == nil && statsOf(res.Metrics) == w.ref[idx]
	var job jobs.Job
	if id != "" {
		raw, rerr := c.call(n, noParent, "status", http.MethodGet, "/v1/jobs/"+id, nil, http.StatusOK)
		if rerr == nil {
			rerr = json.Unmarshal(raw, &job)
		}
		if rerr != nil {
			return rerr // the daemon stopped answering: abort the run
		}
		ok = ok && job.State == jobs.StateDone
		if n%8 == 7 {
			if _, err := c.call(n, noParent, "list", http.MethodGet, "/v1/jobs", nil, http.StatusOK); err != nil {
				return err
			}
		}
	}
	acc.mu.Lock()
	defer acc.mu.Unlock()
	acc.p.attempted++
	if !ok {
		acc.p.failed++
		w.e.log("service item %d (%s/%s N=%d) failed: err=%v state=%s stats=%+v want %+v",
			n, spec.Algorithm, spec.Adversary, spec.N, err, job.State, statsOf(res.Metrics), w.ref[idx])
		return nil
	}
	acc.p.latMs = append(acc.p.latMs, float64(lat)/1e6)
	acc.p.cycles += res.Metrics.S()
	acc.ticks += int64(res.Metrics.Ticks)
	acc.killed += res.Metrics.Incomplete
	acc.sumN += int64(spec.N)
	acc.sumF += res.Metrics.FSize()
	acc.waitMs = append(acc.waitMs, float64(job.Started.Sub(job.Created))/1e6)
	acc.runMs = append(acc.runMs, float64(job.Finished.Sub(job.Started))/1e6)
	return nil
}

// jobDirBytes sums the file sizes under a jobs state directory and
// counts its job directories.
func jobDirBytes(stateDir string) (int64, int, error) {
	var total int64
	dirs := 0
	root := filepath.Join(stateDir, "jobs")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if filepath.Dir(path) == root {
				dirs++
			}
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, dirs, err
}

// ladder replays one pass of the workload's specs, one at a time, at
// each level of the stack — (0) a pooled Runner with no checkpoints, (1)
// the Runner checkpointing every CheckpointEvery ticks to a file, as the
// store's jobs do, (2) engine.ExecuteRun with a JSON-lines sink on a
// file, (3) an in-process jobs.Store, (4) pramd over HTTP — so each
// layer's overhead over the one below is a difference of two measured
// per-item means. Nothing inside a level is timed: per-call figures
// (Step, Decide, each sink event) come from separate replays outside
// the ladder's time, and the checkpoint count and save time from the
// pram layer's own metrics.
func (w *serviceWorkload) ladder(ctx context.Context, tr *tracer, p *phase) error {
	dir, err := os.MkdirTemp(w.e.work, "ladder-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	reg := obs.NewRegistry()
	pram.EnableObs(reg)
	const base = int64(1) << 40 // item IDs apart from the measured phase's
	var mean [5]float64
	check := func(level, i int, met pram.Metrics) error {
		if statsOf(met) != w.ref[i] {
			return fmt.Errorf("ladder level %d, spec %d: stats %+v differ from the reference %+v", level, i, statsOf(met), w.ref[i])
		}
		return nil
	}
	timeLevel := func(level int, run func(id int64, root int32, i int) error) error {
		var total time.Duration
		for i := range w.specs {
			id := base*int64(level+1) + int64(i)
			start := time.Now()
			root := tr.begin(id, fmt.Sprintf("ladder.L%d", level), noParent)
			if err := run(id, root, i); err != nil {
				return err
			}
			tr.end(root)
			total += time.Since(start)
		}
		mean[level] = float64(total) / 1e6 / float64(len(w.specs))
		return nil
	}
	build := func(spec engine.RunSpec) (pram.Config, pram.Algorithm, pram.Adversary, error) {
		alg, _, err := engine.NewAlgorithm(spec.Algorithm, spec.Seed)
		if err != nil {
			return pram.Config{}, nil, nil, err
		}
		adv, err := engine.NewAdversary(spec, spec.N, spec.P)
		return pram.Config{N: spec.N, P: spec.P}, alg, adv, err
	}

	// Levels 0 and 1: Runner.RunCtx, bare and checkpointing.
	var cycles int64
	runnerLevel := func(level int, r *pram.Runner) error {
		defer r.Close()
		return timeLevel(level, func(id int64, root int32, i int) error {
			span := tr.begin(id, "runner.RunCtx", root)
			cfg, alg, adv, err := build(w.specs[i])
			if err != nil {
				return err
			}
			met, err := r.RunCtx(ctx, cfg, alg, adv)
			tr.end(span)
			if err != nil {
				return err
			}
			if level == 0 {
				cycles += met.S()
			}
			return check(level, i, met)
		})
	}
	if err := runnerLevel(0, &pram.Runner{}); err != nil {
		return err
	}
	ckpts0, save0 := checkpointTotals(reg)
	err = runnerLevel(1, &pram.Runner{CheckpointEvery: serviceCheckpointEvery, CheckpointPath: filepath.Join(dir, "l1.snap")})
	if err != nil {
		return err
	}
	ckpts, save := checkpointTotals(reg)
	ckpts, save = ckpts-ckpts0, save-save0

	// Per-call figures, outside the ladder's time: one more pass stepped
	// here, timing every Step and, through timedAdversary, every Decide.
	var stepper pram.Runner
	defer stepper.Close()
	var decideNs time.Duration
	var decideCalls, advEvents int64
	for i, spec := range w.specs {
		id := base*6 + int64(i)
		root := tr.begin(id, "replay.steps", noParent)
		cfg, alg, adv, err := build(spec)
		if err != nil {
			return err
		}
		step := tr.agg(id, "machine.Step", root)
		ta := &timedAdversary{inner: adv, tr: tr, node: tr.agg(id, "adversary.Decide", step)}
		m, err := stepper.Machine(cfg, alg, ta)
		if err != nil {
			return err
		}
		for {
			t0 := time.Now()
			done, err := m.Step()
			tr.add(step, time.Since(t0))
			if err != nil {
				return err
			}
			if done {
				break
			}
		}
		tr.end(root)
		if !writeall.Verify(m.Memory(), spec.N) {
			return fmt.Errorf("ladder step replay, spec %d: Write-All incomplete", i)
		}
		if err := check(0, i, m.Metrics()); err != nil {
			return err
		}
		decideNs, decideCalls, advEvents = decideNs+ta.ns, decideCalls+ta.calls, advEvents+ta.events
	}

	// Level 2: the engine with a JSON-lines sink on an unbuffered file,
	// as the job store wires it. A second, untimed-for-the-ladder replay
	// wraps that sink to time each event delivery.
	var sinkNs time.Duration
	var sinkEvents, sinkBytes int64
	engineRun := func(id int64, root int32, i int, timed bool) error {
		spec := w.specs[i]
		spec.CheckpointPath = filepath.Join(dir, fmt.Sprintf("l2-%d.snap", i))
		f, err := os.Create(filepath.Join(dir, "l2-events.jsonl"))
		if err != nil {
			return err
		}
		defer f.Close()
		cw := &countingWriter{w: f}
		var sink pram.Sink = pram.NewJSONL(cw)
		span := tr.begin(id, "engine.ExecuteRun", root)
		ts := &timedSink{inner: sink, tr: tr}
		if timed {
			ts.node = tr.agg(id, "sink", span)
			sink = ts
		}
		res, err := engine.ExecuteRun(ctx, spec, engine.RunOptions{Sink: sink, Warnf: w.e.log})
		tr.end(span)
		if err != nil {
			return err
		}
		if timed {
			sinkNs += ts.ns
			sinkEvents += ts.events
			sinkBytes += cw.n
		}
		return check(2, i, res.Metrics)
	}
	err = timeLevel(2, func(id int64, root int32, i int) error { return engineRun(id, root, i, false) })
	if err != nil {
		return err
	}
	for i := range w.specs {
		id := base*7 + int64(i)
		root := tr.begin(id, "replay.sink", noParent)
		if err := engineRun(id, root, i, true); err != nil {
			return err
		}
		tr.end(root)
	}

	// Level 3: the job store in this process.
	st, err := jobs.Open(filepath.Join(dir, "store"), jobs.Options{Workers: 1})
	if err != nil {
		return err
	}
	err = timeLevel(3, func(id int64, root int32, i int) error {
		spec := w.specs[i]
		span := tr.begin(id, "jobs.Submit", root)
		job, err := st.Submit(jobs.Spec{Kind: jobs.KindRun, Run: &spec})
		tr.end(span)
		if err != nil {
			return err
		}
		span = tr.begin(id, "jobs.Subscribe", root)
		ch, stop, err := st.Subscribe(job.ID)
		if err != nil {
			return err
		}
		for range ch {
		}
		stop()
		tr.end(span)
		span = tr.begin(id, "jobs.Result", root)
		raw, err := st.Result(job.ID)
		tr.end(span)
		if err != nil {
			return err
		}
		var res engine.RunResult
		if err := json.Unmarshal(raw, &res); err != nil {
			return err
		}
		return check(3, i, res.Metrics)
	})
	closeCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if cerr := st.Close(closeCtx); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	// Level 4: pramd over HTTP, one client.
	c := w.cls[0]
	err = timeLevel(4, func(id int64, root int32, i int) error {
		_, res, err := c.runJob(id, root, w.specs[i])
		if err != nil {
			return err
		}
		return check(4, i, res.Metrics)
	})
	if err != nil {
		return err
	}

	items := float64(len(w.specs))
	sinkMs := float64(sinkNs) / 1e6 / items
	p.layers["ladder.runner_ms_per_item"] = mean[1]
	p.layers["ladder.engine_ms_per_item"] = mean[2]
	p.layers["ladder.jobs_ms_per_item"] = mean[3]
	p.layers["ladder.pramd_ms_per_item"] = mean[4]
	p.layers["runner.self_ns_per_cycle"] = (mean[1] - mean[0]) * 1e6 * items / float64(max(cycles, 1))
	p.layers["engine.self_ms_per_item"] = mean[2] - mean[1] - sinkMs
	p.layers["jobs.self_ms_per_item"] = mean[3] - mean[2]
	p.layers["pramd.self_ms_per_item"] = mean[4] - mean[3]
	p.layers["sink.events"] = float64(sinkEvents)
	p.layers["sink.bytes"] = float64(sinkBytes)
	p.layers["sink.ns_per_event"] = float64(sinkNs) / float64(max(sinkEvents, 1))
	p.layers["pram.step_ns_p50"] = p50(tr.samplesOf("machine.Step"), 1)
	p.layers["runner.checkpoint_ms_mean"] = float64(save) / 1e6 / float64(max(ckpts, 1))
	p.layers["runner.checkpoints"] = float64(ckpts)
	p.layers["adversary.decide_ns_per_tick"] = float64(decideNs) / float64(max(decideCalls, 1))
	p.layers["adversary.events"] = float64(advEvents)
	p.notes = append(p.notes,
		fmt.Sprintf("ladder over %d specs, ms per item: Runner %.3f (bare %.3f, checkpoints +%.3f) | engine+JSONL %.3f (+%.3f) | jobs.Store %.3f (+%.3f) | pramd HTTP %.3f (+%.3f)",
			len(w.specs), mean[1], mean[0], mean[1]-mean[0], mean[2], mean[2]-mean[1], mean[3], mean[3]-mean[2], mean[4], mean[4]-mean[3]),
		fmt.Sprintf("  engine+JSONL step: sink %.3f ms/item over %d events (%d bytes); Runner checkpoints %d, mean save %.3f ms",
			sinkMs, sinkEvents, sinkBytes, ckpts, float64(save)/1e6/float64(max(ckpts, 1))))
	return nil
}

// checkpointTotals reads the number of checkpoints Runners have saved and
// their summed save time from the pram layer's metrics in reg.
func checkpointTotals(reg *obs.Registry) (int64, time.Duration) {
	for _, s := range reg.Snapshot() {
		if s.Name == obs.MetricCheckpointSaveNs {
			return int64(s.Value), time.Duration(s.Sum)
		}
	}
	return 0, 0
}
