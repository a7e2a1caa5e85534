package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/pram"
)

// shape is the part of a pass the seed must not change: which runs it
// holds, ignoring order and random streams.
func kernelShape(items []kernelItem) []string {
	var out []string
	for _, it := range items {
		name := it.Adv.Kind
		if it.Adv.Strategy != nil {
			name = it.Adv.Strategy.Name
		}
		out = append(out, fmt.Sprintf("%s/%d/%d/%s/%g/%g/%d", it.Alg, it.N, it.P, name, it.Adv.Fail, it.Adv.Restart, it.Batch))
	}
	sort.Strings(out)
	return out
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	for name, gen := range map[string]func(int64) any{
		"paper-kernel": func(s int64) any { return paperKernelPass(s) },
		"bigN-batched": func(s int64) any { return bigNPass(s) },
		"service-http": func(s int64) any { return servicePass(s) },
	} {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: two passes at seed 7 differ", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 give the same pass", name)
		}
	}
	// The seed varies streams and order, never the mix of runs, so runs
	// at different seeds measure the same work.
	for name, gen := range map[string]func(int64) []kernelItem{"paper-kernel": paperKernelPass, "bigN-batched": bigNPass} {
		if a, b := kernelShape(gen(7)), kernelShape(gen(8)); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the mix of runs depends on the seed:\n%v\n%v", name, a, b)
		}
	}
	a, b := servicePass(7), servicePass(8)
	strip := func(specs []engine.RunSpec) []string {
		var out []string
		for _, s := range specs {
			out = append(out, fmt.Sprintf("%s/%s/%d/%d", s.Algorithm, s.Adversary, s.N, s.P))
		}
		sort.Strings(out)
		return out
	}
	if !reflect.DeepEqual(strip(a), strip(b)) {
		t.Error("service-http: the mix of jobs depends on the seed")
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 0, 100)
	for i := 1; i <= 99; i++ {
		xs = append(xs, float64(i))
	}
	if _, err := percentile(xs, 0.9); err == nil {
		t.Error("p90 over 99 samples (9 beyond) was not refused")
	}
	xs = append(xs, 100)
	p, err := percentile(xs, 0.9)
	if err != nil || p.Value != 90 || p.Beyond != 10 {
		t.Errorf("p90 over 100 samples = %+v, %v; want 90 with 10 beyond", p, err)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Error("p50 over 19 samples (9 beyond) was not refused")
	}
	if p, err := percentile(xs[:20], 0.5); err != nil || p.Value != 10 {
		t.Errorf("p50 over 20 samples = %+v, %v; want 10", p, err)
	}
}

// TestTimedAdversaryKeepsBatching runs the bigN items at a small N with
// and without the tracing wrapper: the metrics and the number of quiet
// windows TickBatch commits must not change.
func TestTimedAdversaryKeepsBatching(t *testing.T) {
	reg := obs.NewRegistry()
	pram.EnableObs(reg)
	windows := func() float64 {
		v, _ := reg.Value(obs.MetricBatches)
		return v
	}
	for _, it := range bigNPass(3) {
		it.N = 1 << 18
		var plain, traced kernelRunner
		traced.tr = newTracer()

		before := windows()
		want, err := plain.run(context.Background(), 0, it)
		if err != nil {
			t.Fatal(err)
		}
		plainWindows := windows() - before

		before = windows()
		got, err := traced.run(context.Background(), 0, it)
		if err != nil {
			t.Fatal(err)
		}
		tracedWindows := windows() - before

		if got != want {
			t.Errorf("%s: traced metrics %+v differ from plain %+v", it, got, want)
		}
		if plainWindows == 0 || tracedWindows != plainWindows {
			t.Errorf("%s: %v quiet windows traced, %v plain; want equal and nonzero", it, tracedWindows, plainWindows)
		}
		if int64(got.Ticks)-traced.decideCalls <= 0 {
			t.Errorf("%s: no ticks advanced outside Decide", it)
		}
	}
}

// TestBenchmarkJSONListsTheMetrics keeps BENCHMARK.json and the metrics
// the command prints in step.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		got  []struct{ Name, Unit string }
		want []struct{ name, unit string }
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s lists %d metrics, the command prints %d", c.what, len(c.got), len(c.want))
			continue
		}
		for i := range c.got {
			if c.got[i].Name != c.want[i].name || c.got[i].Unit != c.want[i].unit {
				t.Errorf("%s[%d] = %s (%s), the command prints %s (%s)", c.what, i, c.got[i].Name, c.got[i].Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json lists workload %q the command does not know", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; the command has %d", names, len(workloads))
	}
}

// TestCalmWindowsSetAsideStolenPasses checks the choice of passes the
// end-to-end metrics are taken from: passes with more host steal than
// calmSteal are set aside on a quiet host, and the calmer half is kept
// when most passes ran under steal.
func TestCalmWindowsSetAsideStolenPasses(t *testing.T) {
	quiet := []window{{steal: 0}, {steal: 0.005}, {steal: 0.3}, {steal: 0}, {steal: 0.01}}
	if got := len(calmWindows(quiet)); got != 4 {
		t.Errorf("quiet host: kept %d of 5 passes, want 4", got)
	}
	burst := []window{{steal: 0.3}, {steal: 0.1}, {steal: 0.2}, {steal: 0.15}, {steal: 0.25}}
	got := calmWindows(burst)
	if len(got) != 3 {
		t.Fatalf("burst: kept %d of 5 passes, want the calmer 3", len(got))
	}
	for _, w := range got {
		if w.steal > 0.2 {
			t.Errorf("burst: kept a pass with steal %g above the median 0.2", w.steal)
		}
	}
}
