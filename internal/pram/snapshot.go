package pram

import (
	"errors"
	"fmt"
)

// Snapshotter is the interface through which the machine captures and
// restores a component's private cross-tick state as plain words. Three
// kinds of components implement it:
//
//   - Processors: every live processor of a snapshotted run must
//     implement it (Machine.Snapshot errors otherwise). Stateless
//     processors return nil. Dead and halted processors need no state:
//     a restarted processor is by definition indistinguishable from a
//     fresh NewProcessor result.
//   - Algorithms: an Algorithm whose value carries run state (done
//     cursors, incarnation counters, random seeds already consumed)
//     implements it so that a restored run continues that state.
//   - Adversaries: an Adversary with cross-tick state (random streams,
//     event budgets, traversal positions) implements it; adversaries
//     without it are treated as stateless and captured as empty.
//
// RestoreState is always called on a component that was freshly
// constructed (or Reset) for the same (pid, n, p) — it only needs to
// reapply the words SnapshotState returned, not rebuild configuration.
// SnapshotState must return a slice the caller may retain.
type Snapshotter interface {
	SnapshotState() []Word
	RestoreState(state []Word) error
}

// Snapshot-related sentinel errors.
var (
	// ErrNotSnapshottable reports a live component without Snapshotter
	// support during Machine.Snapshot.
	ErrNotSnapshottable = errors.New("pram: component does not implement Snapshotter")
	// ErrSnapshotMismatch reports a snapshot that does not fit the
	// machine it is being restored into (different shape, algorithm, or
	// adversary).
	ErrSnapshotMismatch = errors.New("pram: snapshot does not match machine")
)

// Snapshot is a complete, self-contained capture of a run in progress:
// restoring it into a machine configured with the same parameters,
// algorithm, and adversary yields a run bit-identical to the one that
// was snapshotted (same Metrics, final memory, and Sink event suffix).
// The resume-equivalence test suite holds every algorithm × adversary
// pairing to that contract.
type Snapshot struct {
	// N, P, Policy identify the machine shape the snapshot came from.
	N, P   int
	Policy WritePolicy
	// Algorithm and Adversary are the component names, validated on
	// restore so a snapshot cannot silently resume a different pairing.
	Algorithm, Adversary string

	// Tick is the clock value at capture; Metrics the accounting so far.
	Tick    int
	Metrics Metrics

	// Mem is the shared memory: the full memory when PackedLen is zero,
	// otherwise only the unpacked tail [PackedLen, PackedLen+len(Mem)).
	// States and Stables are the per-PID liveness and stable action
	// counters; Procs the per-PID private state of live processors (nil
	// for dead/halted PIDs).
	Mem     []Word
	States  []ProcState
	Stables []Word
	Procs   [][]Word

	// PackedLen and PackedBits capture a bit-packed memory prefix in
	// representation form (see Config.Packed): cells [0, PackedLen) one
	// bit each, 64 per word. Capturing the representation directly keeps
	// an N=10⁸ packed checkpoint at ~12 MB instead of materializing
	// 800 MB. Zero/nil for unpacked memories (and for every snapshot
	// written before format version 2). Snapshots restore across
	// representations: the logical cell contents are what round-trips.
	PackedLen  int
	PackedBits []uint64

	// AlgState and AdvState hold the algorithm's and adversary's own
	// Snapshotter payloads (nil when the component is stateless).
	AlgState []Word
	AdvState []Word
}

// MemSize returns the logical memory size the snapshot captures:
// the packed prefix plus the (possibly whole-memory) unpacked tail.
func (s *Snapshot) MemSize() int { return s.PackedLen + len(s.Mem) }

// Snapshot captures the machine's complete run state between ticks. It
// must not be called concurrently with Step or Run. Every live
// processor must implement Snapshotter.
func (m *Machine) Snapshot() (*Snapshot, error) {
	if m.closed {
		return nil, errors.New("pram: Snapshot on closed machine")
	}
	s := &Snapshot{
		N:         m.cfg.N,
		P:         m.cfg.P,
		Policy:    m.cfg.Policy,
		Algorithm: m.alg.Name(),
		Adversary: m.adv.Name(),
		Tick:      m.tick,
		Metrics:   m.metrics,
		States:    append([]ProcState(nil), m.states...),
		Stables:   append([]Word(nil), m.stables...),
		Procs:     make([][]Word, m.cfg.P),
	}
	if pl := m.mem.PackedLen(); pl > 0 {
		// Capture the packed representation directly instead of
		// materializing one Word per cell; Mem holds only the tail.
		s.PackedLen = pl
		s.PackedBits = append([]uint64(nil), m.mem.bits...)
		s.Mem = append([]Word(nil), m.mem.cells...)
	} else {
		s.Mem = m.mem.CopyInto(nil)
	}
	for pid := 0; pid < m.cfg.P; pid++ {
		if m.states[pid] != Alive {
			continue
		}
		ps, ok := m.procs[pid].(Snapshotter)
		if !ok {
			return nil, fmt.Errorf("%w: processor %d (%T) of algorithm %s",
				ErrNotSnapshottable, pid, m.procs[pid], m.alg.Name())
		}
		s.Procs[pid] = ps.SnapshotState()
	}
	if as, ok := m.alg.(Snapshotter); ok {
		s.AlgState = as.SnapshotState()
	}
	if as, ok := m.adv.(Snapshotter); ok {
		s.AdvState = as.SnapshotState()
	}
	return s, nil
}

// RestoreSnapshot rewinds the machine to a previously captured state.
// The machine must already be configured (via New or Reset) with the
// same N, P, policy, algorithm, and adversary the snapshot came from.
//
// Restore order matters for components whose construction has side
// effects (ACC's NewProcessor advances an incarnation counter and draws
// from a stream): processors are built or reused first, then the
// algorithm's and adversary's own state is restored, undoing any such
// perturbation, and finally each live processor's private words are
// reapplied.
func (m *Machine) RestoreSnapshot(s *Snapshot) error {
	if m.closed {
		return errors.New("pram: RestoreSnapshot on closed machine")
	}
	if s.N != m.cfg.N || s.P != m.cfg.P || s.Policy != m.cfg.Policy {
		return fmt.Errorf("%w: snapshot is N=%d P=%d policy=%s, machine is N=%d P=%d policy=%s",
			ErrSnapshotMismatch, s.N, s.P, s.Policy, m.cfg.N, m.cfg.P, m.cfg.Policy)
	}
	if s.Algorithm != m.alg.Name() || s.Adversary != m.adv.Name() {
		return fmt.Errorf("%w: snapshot is %s vs %s, machine is %s vs %s",
			ErrSnapshotMismatch, s.Algorithm, s.Adversary, m.alg.Name(), m.adv.Name())
	}
	if s.MemSize() != m.mem.Size() {
		return fmt.Errorf("%w: snapshot memory has %d cells, machine has %d",
			ErrSnapshotMismatch, s.MemSize(), m.mem.Size())
	}
	if s.PackedLen < 0 || len(s.PackedBits) != (s.PackedLen+63)/64 {
		return fmt.Errorf("%w: packed prefix %d cells with %d bit words",
			ErrSnapshotMismatch, s.PackedLen, len(s.PackedBits))
	}
	if len(s.States) != m.cfg.P || len(s.Stables) != m.cfg.P || len(s.Procs) != m.cfg.P {
		return fmt.Errorf("%w: per-processor slices sized %d/%d/%d, want %d",
			ErrSnapshotMismatch, len(s.States), len(s.Stables), len(s.Procs), m.cfg.P)
	}
	for pid, st := range s.States {
		if st != Alive && st != Dead && st != Halted {
			return fmt.Errorf("%w: invalid state %d for pid %d", ErrSnapshotMismatch, st, pid)
		}
	}

	m.mem.RestoreParts(m.packedLen(s.MemSize()), s.PackedLen, s.PackedBits, s.Mem)
	copy(m.states, s.States)
	copy(m.stables, s.Stables)
	for pid := 0; pid < m.cfg.P; pid++ {
		m.intents[pid] = nil
		if m.states[pid] != Alive {
			if m.procs[pid] != nil {
				m.retire(pid)
			}
			continue
		}
		if m.procs[pid] == nil {
			m.procs[pid] = m.reviveProcessor(pid)
		}
	}
	if as, ok := m.alg.(Snapshotter); ok {
		if err := as.RestoreState(s.AlgState); err != nil {
			return fmt.Errorf("pram: restore algorithm %s: %w", m.alg.Name(), err)
		}
	}
	if as, ok := m.adv.(Snapshotter); ok {
		if err := as.RestoreState(s.AdvState); err != nil {
			return fmt.Errorf("pram: restore adversary %s: %w", m.adv.Name(), err)
		}
	}
	for pid := 0; pid < m.cfg.P; pid++ {
		if m.states[pid] != Alive {
			continue
		}
		ps, ok := m.procs[pid].(Snapshotter)
		if !ok {
			return fmt.Errorf("%w: processor %d (%T) of algorithm %s",
				ErrNotSnapshottable, pid, m.procs[pid], m.alg.Name())
		}
		if err := ps.RestoreState(s.Procs[pid]); err != nil {
			return fmt.Errorf("pram: restore processor %d: %w", pid, err)
		}
	}

	m.tick = s.Tick
	m.metrics = s.Metrics
	m.ended = false
	m.pending = m.pending[:0]
	m.failDirty = true
	m.initDoneHint()
	m.resetRobustness()
	return nil
}

// StateLenError builds the conventional length-mismatch error for
// Snapshotter implementations.
func StateLenError(component string, got, want int) error {
	return fmt.Errorf("%s: snapshot state has %d words, want %d", component, got, want)
}
