package pram

import (
	"runtime/debug"

	"repro/internal/faultinject"
)

// attempt executes the attempt phase of one tick, the lock-step PRAM of
// Section 2.1 transcribed directly: it walks the PIDs in order and, for
// every alive, scheduled processor, runs one update cycle against the
// pre-tick memory view and publishes the resulting intent in m.intents
// (nil for processors that did not attempt). It returns the number of
// intents published; a panicked attempt publishes none.
//
// Cycle validation (budget checks, metrics maxima) is not part of the
// walk: Step validates the published intents afterwards, in PID order.
func (m *Machine) attempt() int {
	alive := 0
	for next := 0; next < m.cfg.P; {
		var n int
		next, n = m.attemptSpan(next)
		alive += n
	}
	return alive
}

// attemptSpan attempts pids [lo, P) and returns P with the number of
// intents it published, or — when a cycle panics — records the crash
// and returns the pid after the panicked one. It recovers injected and
// natural panics so a crashing cycle fails the run, not the process, and
// it hosts the kernel.cycle failpoint. Isolation is per span, not per
// cycle, so the no-panic hot path pays one defer per tick; a panic costs
// one extra attemptSpan call and the remaining pids still attempt. The
// walk meets the lowest panicking PID first, and that is the one kept.
func (m *Machine) attemptSpan(lo int) (next, published int) {
	pid := lo
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		// A panicked attempt publishes nothing (attemptOne publishes
		// last, so m.intents[pid] is still nil from the loop top).
		if m.cyclePanic == nil {
			m.cyclePanic = &CyclePanicError{PID: pid, Tick: m.tick, Value: v, Stack: debug.Stack()}
		}
		next = pid + 1
	}()
	inject := m.fiCycle.Mode() != faultinject.Off
	for ; pid < m.cfg.P; pid++ {
		m.intents[pid] = nil
		if m.states[pid] != Alive || !m.runnable(pid) {
			continue
		}
		if inject && m.fiCycle.FireKeyed(uint64(m.tick)<<32|uint64(pid)) {
			panic(faultinject.Injected{Point: "kernel.cycle"})
		}
		m.attemptOne(pid)
		published++
	}
	return m.cfg.P, published
}

// attemptOne executes processor pid's update cycle against the tick-start
// memory and publishes its intent. Writes and stable updates are
// buffered, so the attempts of one tick cannot observe each other;
// private-state mutation is harmless because any killed processor loses
// private state.
func (m *Machine) attemptOne(pid int) {
	ctx := m.ctxs[pid]
	ctx.reset(m.tick, m.stables[pid])
	status := m.procs[pid].Cycle(ctx)
	in := &m.intentsB[pid]
	in.Reads = ctx.readAddrs() // aliases Ctx storage; valid through the tick
	in.Writes = ctx.writeOps()
	in.Halts = status == Halt
	in.Snapshot = ctx.snapshots > 0
	m.intents[pid] = in
}

// runnable reports whether pid is scheduled this tick (m.sched is the
// schedule resolved at the top of the tick; nil means everyone runs).
func (m *Machine) runnable(pid int) bool {
	return m.sched == nil || m.sched[pid]
}
