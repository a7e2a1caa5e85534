package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"repro/internal/adversary"
	"repro/internal/advlab"
	"repro/internal/engine"
	"repro/internal/pram"
	"repro/internal/writeall"
)

// kernelItem is one Write-All run driven straight through a pooled
// pram.Runner.
type kernelItem struct {
	Alg   string
	N, P  int
	Adv   advSpec
	Batch int // > 1: drive the run through Machine.TickBatch windows of this size
}

// advSpec names an adversary and its parameters; build makes a fresh
// instance, since adversaries carry per-run state.
type advSpec struct {
	Kind          string // none, random, halving, lab, window
	Fail, Restart float64
	Seed          int64
	From, To      int              // window bounds
	Strategy      *advlab.Strategy // lab
}

func (a advSpec) build() (pram.Adversary, error) {
	switch a.Kind {
	case "none":
		return adversary.None{}, nil
	case "random":
		return adversary.NewRandom(a.Fail, a.Restart, a.Seed), nil
	case "halving":
		return adversary.NewHalving(), nil
	case "window":
		return adversary.NewWindow(adversary.NewRandom(a.Fail, a.Restart, a.Seed), a.From, a.To), nil
	case "lab":
		return a.Strategy.Compile()
	}
	return nil, fmt.Errorf("unknown adversary kind %q", a.Kind)
}

func (a advSpec) String() string {
	switch a.Kind {
	case "random", "window":
		return fmt.Sprintf("%s(%g/%g)", a.Kind, a.Fail, a.Restart)
	case "lab":
		return "lab:" + a.Strategy.Name
	}
	return a.Kind
}

func (it kernelItem) String() string {
	return fmt.Sprintf("%s N=%d P=%d %s", it.Alg, it.N, it.P, it.Adv)
}

func (it kernelItem) config() pram.Config {
	return pram.Config{N: it.N, P: it.P, Packed: it.Batch > 1}
}

// splitmix is a seeded 64-bit mixer: sub-seeds for one workload seed.
func splitmix(x uint64) int64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64((x ^ (x >> 31)) & (1<<62 - 1))
}

// shuffle permutes a pass with the workload seed.
func shuffle[T any](seed int64, xs []T) {
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// paperKernelPass is one pass of the paper-kernel workload: 5 adversaries
// × 5 runs of X, V, combined, W and X again at another size, at N = 2¹²
// to 2¹⁵ and P = N/32 to N/8. The shape of the pass is fixed; the seed
// picks the random adversaries' and lab strategies' streams and the
// order. Keeping the composition fixed keeps runs at different seeds
// comparable; 25 items per pass put p50 and p90 in the middle of an item
// class rather than on the edge between two.
func paperKernelPass(seed int64) []kernelItem {
	type slot struct {
		alg  string
		logN int
		div  int
	}
	pass := []struct {
		adv   string
		slots [5]slot
	}{
		{"none", [5]slot{{"X", 15, 8}, {"V", 15, 32}, {"combined", 14, 8}, {"W", 15, 8}, {"X", 12, 32}}},
		{"random", [5]slot{{"X", 12, 8}, {"V", 13, 8}, {"combined", 12, 32}, {"W", 12, 32}, {"X", 13, 32}}},
		{"halving", [5]slot{{"X", 13, 8}, {"V", 12, 32}, {"combined", 13, 32}, {"W", 13, 32}, {"X", 14, 32}}},
		{"decimate", [5]slot{{"X", 14, 32}, {"V", 15, 8}, {"combined", 13, 8}, {"W", 15, 32}, {"X", 12, 8}}},
		{"stalk", [5]slot{{"V", 14, 16}, {"combined", 12, 8}, {"W", 14, 8}, {"V", 15, 32}, {"combined", 13, 8}}},
	}
	var items []kernelItem
	for ai, row := range pass {
		for si, s := range row.slots {
			n := 1 << s.logN
			p := n / s.div
			sub := splitmix(uint64(seed)*1000 + uint64(ai*10+si))
			var adv advSpec
			switch row.adv {
			case "random":
				adv = advSpec{Kind: "random", Fail: 0.1, Restart: 0.5, Seed: sub}
			case "decimate", "stalk":
				st := builtinStrategy(row.adv, p)
				st.Seed = sub
				adv = advSpec{Kind: "lab", Strategy: &st}
			default:
				adv = advSpec{Kind: row.adv}
			}
			items = append(items, kernelItem{Alg: s.alg, N: n, P: p, Adv: adv})
		}
	}
	shuffle(seed, items)
	return items
}

// builtinStrategy returns the lab's built-in strategy of that name for p
// processors.
func builtinStrategy(name string, p int) advlab.Strategy {
	for _, s := range advlab.BuiltinStrategies(p) {
		if s.Name == name {
			return s
		}
	}
	panic("no built-in strategy " + name)
}

// bigNN is the Write-All size of the bigN-batched workload.
const bigNN = 10_000_000

// bigNPass is one pass of the bigN-batched workload: the two BatchCycler
// algorithms at N = 10⁷ on packed memory, driven through TickBatch, under
// adversaries whose quiet gaps make batch windows alternate with per-tick
// stepping. Five items put p50 and p90 inside an item class.
func bigNPass(seed int64) []kernelItem {
	const p = 1024
	sub := func(i int) int64 { return splitmix(uint64(seed)*1000 + uint64(100+i)) }
	bursts := advlab.Strategy{Name: "bursts", Seed: sub(1), Rules: []advlab.Rule{{
		Trigger:      advlab.Trigger{Kind: advlab.TriggerEvery, Period: 1024, Duty: 4},
		Target:       advlab.Target{Kind: advlab.TargetRandom, K: p / 64},
		Point:        advlab.PointAfterReads,
		RestartAfter: 1,
		Budget:       advlab.Budget{MaxEvents: p / 2},
	}}}
	pulses := advlab.Strategy{Name: "pulses", Seed: sub(2), Rules: []advlab.Rule{{
		Trigger:      advlab.Trigger{Kind: advlab.TriggerEvery, Period: 4096, Duty: 2},
		Target:       advlab.Target{Kind: advlab.TargetPIDs, PIDs: []int{0}},
		Point:        advlab.PointAfterReads,
		RestartAfter: 1,
	}}}
	const batch = 4096
	items := []kernelItem{
		{Alg: "trivial", N: bigNN, P: p, Adv: advSpec{Kind: "none"}, Batch: batch},
		{Alg: "trivial", N: bigNN, P: p, Adv: advSpec{Kind: "lab", Strategy: &bursts}, Batch: batch},
		{Alg: "trivial", N: bigNN, P: p, Adv: advSpec{Kind: "window", Fail: 0.1, Restart: 0.5, Seed: sub(3), From: 2000, To: 2200}, Batch: batch},
		{Alg: "sequential", N: bigNN, P: 64, Adv: advSpec{Kind: "lab", Strategy: &pulses}, Batch: batch},
		{Alg: "sequential", N: bigNN, P: 64, Adv: advSpec{Kind: "none"}, Batch: batch},
	}
	shuffle(seed, items)
	return items
}

// stats are the simulated quantities of one run that must repeat
// exactly at one seed: S, S′, |F| and the tick count.
type stats struct {
	S, SPrime, F int64
	Ticks        int
}

func statsOf(m pram.Metrics) stats {
	return stats{S: m.S(), SPrime: m.SPrime(), F: m.FSize(), Ticks: m.Ticks}
}

// digest folds a pass's simulated statistics, in pass order, into one
// printable value.
func digest(ref []stats) string {
	h := fnv.New64a()
	for _, s := range ref {
		fmt.Fprintf(h, "%d/%d/%d/%d;", s.S, s.SPrime, s.F, s.Ticks)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// kernelRunner executes kernelItems on one pooled Runner.
type kernelRunner struct {
	r pram.Runner

	tr *tracer // nil: untraced
	kernelCounts
}

// kernelCounts is a traced phase's adversary and batch accounting.
type kernelCounts struct {
	decideNs    time.Duration
	decideCalls int64 // ticks outside quiet windows
	activeTicks int64 // ticks on which the adversary acted
	advEvents   int64 // failures + restarts requested
	batchCalls  int64
}

// run executes one item, verifies Write-All, and returns its metrics. A
// traced run times Runner.Machine — the pooled machine's reset, all the
// Runner adds to a run without checkpoints — as its own span, then steps
// the machine itself, timing each Step (or TickBatch) and, through
// timedAdversary, each Decide; an untraced run calls Machine.RunCtx —
// what Runner.RunCtx does without checkpoints — or the same TickBatch
// loop Runner uses when BatchTicks is set.
func (k *kernelRunner) run(ctx context.Context, id int64, it kernelItem) (pram.Metrics, error) {
	alg, _, err := engine.NewAlgorithm(it.Alg, 0)
	if err != nil {
		return pram.Metrics{}, err
	}
	adv, err := it.Adv.build()
	if err != nil {
		return pram.Metrics{}, err
	}
	tr := k.tr
	root := tr.begin(id, "item", noParent)
	defer tr.end(root)
	var ta *timedAdversary
	if tr != nil {
		ta = &timedAdversary{inner: adv, tr: tr, node: noParent}
		adv = ta
	}
	span := tr.begin(id, "runner.Machine", root)
	m, err := k.r.Machine(it.config(), alg, adv)
	tr.end(span)
	if err != nil {
		return pram.Metrics{}, err
	}
	span = tr.begin(id, "step loop", root)
	var step int32 = noParent
	if tr != nil {
		name := "machine.Step"
		if it.Batch > 1 {
			name = "machine.TickBatch"
		}
		step = tr.agg(id, name, span)
		ta.node = tr.agg(id, "adversary.Decide", step)
	}
	var met pram.Metrics
	switch {
	case it.Batch > 1:
		for {
			var start time.Time
			if tr != nil {
				start = time.Now()
			}
			_, done, err := m.TickBatch(it.Batch)
			if tr != nil {
				tr.add(step, time.Since(start))
				k.batchCalls++
			}
			if err != nil {
				return m.Metrics(), err
			}
			if done {
				break
			}
			if err := ctx.Err(); err != nil {
				return m.Metrics(), err
			}
		}
		met = m.Metrics()
	case tr == nil:
		if met, err = m.RunCtx(ctx); err != nil {
			return met, err
		}
	default:
		for {
			start := time.Now()
			done, err := m.Step()
			tr.add(step, time.Since(start))
			if err != nil {
				return m.Metrics(), err
			}
			if done {
				break
			}
		}
		met = m.Metrics()
	}
	tr.end(span)
	if ta != nil {
		k.decideNs += ta.ns
		k.decideCalls += ta.calls
		k.activeTicks += ta.active
		k.advEvents += ta.events
	}
	if !writeall.Verify(m.Memory(), it.N) {
		return met, fmt.Errorf("%s: Write-All incomplete after %d ticks", it, met.Ticks)
	}
	return met, nil
}
