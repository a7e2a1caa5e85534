package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/faultinject"
	"repro/internal/jobs"
	"repro/internal/obs"
)

// newDaemon stands up the full HTTP surface over a fresh store in dir.
func newDaemon(t *testing.T, dir string) (*jobs.Store, *httptest.Server) {
	t.Helper()
	store, err := jobs.Open(dir, jobs.Options{Logf: t.Logf})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return store, httptest.NewServer(NewServer(store, nil))
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp, raw
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	if v != nil {
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, raw, err)
		}
	}
	return resp
}

// waitDone polls the job endpoint until the job is terminal.
func waitDone(t *testing.T, base, id string) jobs.Job {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		var job jobs.Job
		getJSON(t, base+"/v1/jobs/"+id, &job)
		if job.State.Terminal() {
			return job
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return jobs.Job{}
}

const runJobBody = `{"kind":"run","run":{"algorithm":"X","adversary":"random","n":256,"p":32,"seed":7,"fail_prob":0.2,"restart_prob":0.5,"checkpoint_every":8}}`

func TestSubmitRunAndFetchResult(t *testing.T) {
	store, srv := newDaemon(t, t.TempDir())
	defer srv.Close()
	defer store.Kill()

	resp, raw := postJSON(t, srv.URL+"/v1/jobs", runJobBody)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d, body %s", resp.StatusCode, raw)
	}
	var job jobs.Job
	if err := json.Unmarshal(raw, &job); err != nil {
		t.Fatalf("submit response: %v", err)
	}
	if job.ID == "" || job.State != jobs.StateQueued {
		t.Fatalf("submit returned %+v", job)
	}

	done := waitDone(t, srv.URL, job.ID)
	if done.State != jobs.StateDone {
		t.Fatalf("state = %s (error %q), want done", done.State, done.Error)
	}

	var res engine.RunResult
	if resp := getJSON(t, srv.URL+"/v1/jobs/"+job.ID+"/result", &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d", resp.StatusCode)
	}
	if res.Metrics.Completed < 256 {
		t.Fatalf("result metrics incomplete: %+v", res.Metrics)
	}

	var list struct {
		Jobs []jobs.Job `json:"jobs"`
	}
	getJSON(t, srv.URL+"/v1/jobs", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != job.ID {
		t.Fatalf("list = %+v", list.Jobs)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	store, srv := newDaemon(t, t.TempDir())
	defer srv.Close()
	defer store.Kill()

	// Validation failure: 400.
	if resp, raw := postJSON(t, srv.URL+"/v1/jobs", `{"kind":"run","run":{"algorithm":"nope","adversary":"none","n":8}}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad spec status = %d, body %s", resp.StatusCode, raw)
	}
	// Unknown field (a typo, or the removed kernel worker count): 400.
	for _, body := range []string{
		`{"kind":"run","run":{"algoritm":"X"}}`,
		`{"kind":"run","run":{"algorithm":"X","adversary":"none","n":8,"workers":2}}`,
	} {
		if resp, _ := postJSON(t, srv.URL+"/v1/jobs", body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("unknown field status = %d for %s", resp.StatusCode, body)
		}
	}
	// Path-carrying spec: 400 (the store owns the files).
	if resp, _ := postJSON(t, srv.URL+"/v1/jobs", `{"kind":"run","run":{"algorithm":"X","adversary":"none","n":8,"csv":"/tmp/x"}}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("path field status = %d", resp.StatusCode)
	}
	// Unknown job: 404.
	if resp := getJSON(t, srv.URL+"/v1/jobs/j999999", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d", resp.StatusCode)
	}
	// Result of an unfinished job: 409.
	_, raw := postJSON(t, srv.URL+"/v1/jobs", runJobBody)
	var job jobs.Job
	if err := json.Unmarshal(raw, &job); err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitDone(t, srv.URL, job.ID)
	if resp, _ := postJSON(t, srv.URL+"/v1/jobs/"+job.ID+"/cancel", ""); resp.StatusCode != http.StatusConflict {
		t.Errorf("cancel finished job status = %d", resp.StatusCode)
	}
	// Health and metrics-less setup.
	if resp := getJSON(t, srv.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}
}

// TestEventsStream verifies the SSE surface: a subscriber sees the job
// snapshot, live event lines, and the end marker.
func TestEventsStream(t *testing.T) {
	store, srv := newDaemon(t, t.TempDir())
	defer srv.Close()
	defer store.Kill()

	_, raw := postJSON(t, srv.URL+"/v1/jobs", runJobBody)
	var job jobs.Job
	if err := json.Unmarshal(raw, &job); err != nil {
		t.Fatalf("submit: %v", err)
	}

	resp, err := http.Get(srv.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	var sawJob, sawTick, sawEnd bool
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case line == "event: job":
			sawJob = true
		case line == "event: end":
			sawEnd = true
		case strings.HasPrefix(line, "data: ") && strings.Contains(line, `"ev":"tick"`):
			sawTick = true
		}
		if sawEnd {
			break
		}
	}
	if !sawJob || !sawTick || !sawEnd {
		t.Fatalf("stream incomplete: job=%v tick=%v end=%v", sawJob, sawTick, sawEnd)
	}
	waitDone(t, srv.URL, job.ID)
}

// TestSweepKillRestartOverHTTP is the ISSUE's service-level chaos
// drill end to end: submit a sweep over HTTP, kill the daemon mid-run
// via the faultinject registry, restart over the same state directory,
// and require the resumed job's result to match an uninterrupted
// baseline's bit for bit (modulo the journal-provenance markers).
func TestSweepKillRestartOverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep jobs run real experiments")
	}
	const sweepBody = `{"kind":"sweep","sweep":{"run":["E1","E4","E13"]}}`

	// Baseline daemon: uninterrupted.
	baseStore, baseSrv := newDaemon(t, t.TempDir())
	_, raw := postJSON(t, baseSrv.URL+"/v1/jobs", sweepBody)
	var baseJob jobs.Job
	if err := json.Unmarshal(raw, &baseJob); err != nil {
		t.Fatalf("submit baseline: %v", err)
	}
	if got := waitDone(t, baseSrv.URL, baseJob.ID); got.State != jobs.StateDone {
		t.Fatalf("baseline state = %s (error %q)", got.State, got.Error)
	}
	var baseRes engine.SweepResult
	getJSON(t, baseSrv.URL+"/v1/jobs/"+baseJob.ID+"/result", &baseRes)
	baseSrv.Close()
	baseStore.Kill()

	// Chaos daemon: the kill point fires after the second experiment
	// journals, simulating SIGKILL mid-sweep.
	reg := faultinject.New(1)
	reg.Set(jobs.KillPoint, faultinject.Spec{Mode: faultinject.Error, After: 1})
	old := faultinject.Swap(reg)
	defer faultinject.Swap(old)

	dir := t.TempDir()
	store, srv := newDaemon(t, dir)
	_, raw = postJSON(t, srv.URL+"/v1/jobs", sweepBody)
	var job jobs.Job
	if err := json.Unmarshal(raw, &job); err != nil {
		t.Fatalf("submit: %v", err)
	}
	// The SSE stream ends when the worker abandons the killed job.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	_, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	srv.Close()
	store.Kill()

	// The crash left the job "running" on disk, with a journal holding
	// the experiments that finished before the kill.
	var onDisk jobs.Job
	status, err := os.ReadFile(filepath.Join(dir, "jobs", job.ID, "status.json"))
	if err != nil {
		t.Fatalf("status.json: %v", err)
	}
	if err := json.Unmarshal(status, &onDisk); err != nil {
		t.Fatalf("status.json: %v", err)
	}
	if onDisk.State != jobs.StateRunning {
		t.Fatalf("killed job on disk = %s, want running", onDisk.State)
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs", job.ID, "sweep", "journal.jsonl")); err != nil {
		t.Fatalf("sweep journal missing after kill: %v", err)
	}

	// Restart the daemon over the same state dir, without the failpoint.
	faultinject.Swap(old)
	store2, srv2 := newDaemon(t, dir)
	defer srv2.Close()
	defer store2.Kill()

	got := waitDone(t, srv2.URL, job.ID)
	if got.State != jobs.StateDone {
		t.Fatalf("recovered state = %s (error %q), want done", got.State, got.Error)
	}
	if got.Resumes != 1 {
		t.Fatalf("recovered resumes = %d, want 1", got.Resumes)
	}
	var res engine.SweepResult
	getJSON(t, srv2.URL+"/v1/jobs/"+job.ID+"/result", &res)

	replayed := 0
	for i := range res.Experiments {
		if res.Experiments[i].Replayed {
			replayed++
			res.Experiments[i].Replayed = false
		}
	}
	if replayed == 0 {
		t.Fatalf("recovered sweep replayed nothing from the journal")
	}
	baseJSON, _ := json.Marshal(baseRes)
	gotJSON, _ := json.Marshal(res)
	if !bytes.Equal(baseJSON, gotJSON) {
		t.Fatalf("recovered sweep result differs from baseline:\n%s\nvs\n%s", gotJSON, baseJSON)
	}
}

func TestCancelRunningOverHTTP(t *testing.T) {
	store, srv := newDaemon(t, t.TempDir())
	defer srv.Close()
	defer store.Kill()

	// A bigger run so cancel lands while it is still in flight; if it
	// finishes first the cancel correctly reports 409.
	_, raw := postJSON(t, srv.URL+"/v1/jobs", `{"kind":"run","run":{"algorithm":"X","adversary":"random","n":4096,"p":64,"seed":7,"fail_prob":0.2,"restart_prob":0.5}}`)
	var job jobs.Job
	if err := json.Unmarshal(raw, &job); err != nil {
		t.Fatalf("submit: %v", err)
	}
	resp, body := postJSON(t, srv.URL+"/v1/jobs/"+job.ID+"/cancel", "")
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel status = %d, body %s", resp.StatusCode, body)
	}
	done := waitDone(t, srv.URL, job.ID)
	if resp.StatusCode == http.StatusOK && done.State != jobs.StateCanceled {
		t.Fatalf("state after cancel = %s, want canceled", done.State)
	}
}

func TestListenAddrBindsLocalhost(t *testing.T) {
	for in, want := range map[string]string{
		":7421":          "127.0.0.1:7421",
		"127.0.0.1:7421": "127.0.0.1:7421",
		"0.0.0.0:7421":   "0.0.0.0:7421",
	} {
		if got := listenAddr(in); got != want {
			t.Errorf("listenAddr(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	store, err := jobs.Open(t.TempDir(), jobs.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer store.Kill()
	reg := obs.NewRegistry()
	jobs.EnableObs(reg)
	srv := httptest.NewServer(NewServer(store, reg))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), "jobs_submitted_total") {
		t.Fatalf("metrics status %d body %q", resp.StatusCode, raw)
	}
}

// TestFabricMountOverDaemonSurface serves a fabric coordinator on the
// daemon's mux (the -fabric-sweep wiring) and runs one worker against
// it over HTTP: the job API and the fabric surface share one address.
func TestFabricMountOverDaemonSurface(t *testing.T) {
	dir := t.TempDir()
	store, err := jobs.Open(filepath.Join(dir, "jobs"), jobs.Options{Logf: t.Logf})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer store.Close(t.Context())

	tasks, err := fabric.Decompose(engine.SweepSpec{Run: []string{"E1"}})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := fabric.NewCoordinator(tasks, filepath.Join(dir, "ledger.jsonl"), fabric.Options{CodeVersion: "test", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv := NewServer(store, nil)
	srv.Mount("/v1/fabric/", coord.Handler())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Both surfaces answer on one address.
	var stats fabric.Stats
	if resp := getJSON(t, ts.URL+"/v1/fabric/status", &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("fabric status: %d", resp.StatusCode)
	}
	if stats.Tasks != 1 || stats.Pending != 1 {
		t.Fatalf("fresh coordinator stats: %+v", stats)
	}
	if resp := getJSON(t, ts.URL+"/v1/jobs", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("jobs list alongside fabric: %d", resp.StatusCode)
	}

	w := &fabric.Worker{ID: "daemon-test", Coord: &fabric.Client{BaseURL: ts.URL}, Poll: 10 * time.Millisecond, Logf: t.Logf}
	if err := w.Run(t.Context()); err != nil {
		t.Fatalf("worker: %v", err)
	}
	getJSON(t, ts.URL+"/v1/fabric/status", &stats)
	if stats.Done != 1 || stats.Commits != 1 {
		t.Fatalf("worker must commit E1 over the daemon surface, got %+v", stats)
	}
}
