package pram

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// snapAlg is a stateful strided writer: processor pid writes cells pid,
// pid+p, pid+2p, ... using a private cursor, so snapshots must capture
// real per-processor state to resume correctly.
type snapAlg struct{}

func (snapAlg) Name() string                         { return "snap-strided" }
func (snapAlg) MemorySize(n, p int) int              { return n }
func (snapAlg) Setup(mem *Memory, n, p int)          {}
func (snapAlg) NewProcessor(pid, n, p int) Processor { return &snapAlgProc{pid: pid, n: n, p: p} }
func (snapAlg) Done(mem MemoryView, n, p int) bool {
	for i := 0; i < n; i++ {
		if mem.Load(i) == 0 {
			return false
		}
	}
	return true
}

type snapAlgProc struct {
	pid, n, p int
	k         int
}

func (s *snapAlgProc) Cycle(ctx *Ctx) Status {
	addr := s.pid + s.k*s.p
	if addr >= s.n {
		return Halt
	}
	ctx.Write(addr, 1)
	s.k++
	return Continue
}

func (s *snapAlgProc) Reset(pid, n, p int) { s.pid, s.n, s.p, s.k = pid, n, p, 0 }

func (s *snapAlgProc) SnapshotState() []Word { return []Word{Word(s.k)} }

func (s *snapAlgProc) RestoreState(state []Word) error {
	if len(state) != 1 {
		return StateLenError("snap-strided processor", len(state), 1)
	}
	s.k = int(state[0])
	return nil
}

// churnAdversary deterministically fails a rotating processor every
// fifth tick (sparse enough that strided writers still finish their
// strides between hits) and restarts every dead processor the next
// tick, so runs exercise death, restart, and private-state loss without
// randomness.
func churnAdversary() *funcAdversary {
	return &funcAdversary{
		name: "churn",
		f: func(v *View) Decision {
			var dec Decision
			for pid := 0; pid < v.P; pid++ {
				if v.States.At(pid) == Dead {
					dec.Restarts = append(dec.Restarts, pid)
				}
			}
			if v.Tick%5 == 0 {
				target := (v.Tick / 5) % v.P
				if v.States.At(target) == Alive {
					dec.Failures = map[int]FailPoint{target: FailBeforeReads}
				}
			}
			return dec
		},
	}
}

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		N: 8, P: 3, Policy: Common,
		Algorithm: "snap-strided", Adversary: "churn",
		Tick: 42,
		Metrics: Metrics{
			N: 8, P: 3, Ticks: 42, Completed: 100, Incomplete: 7,
			Failures: 9, Restarts: 8, Vetoes: 1, MaxReads: 4, MaxWrites: 2, Snapshots: 0,
		},
		Mem:      []Word{1, 0, 1, 1, 0, 0, 1, 9},
		States:   []ProcState{Alive, Dead, Alive},
		Stables:  []Word{3, 0, 5},
		Procs:    [][]Word{{2}, nil, {1}},
		AlgState: nil,
		AdvState: []Word{7, 21, 1000},
	}
}

// TestSnapshotIORoundTrip pins the binary format: a snapshot survives
// WriteSnapshot/ReadSnapshot bit-exactly, including nil per-processor
// entries for dead PIDs.
func TestSnapshotIORoundTrip(t *testing.T) {
	want := sampleSnapshot()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, want); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("round trip diverges:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestSnapshotIORejectsCorruption checks every corruption class is
// detected rather than silently resumed: bad magic, unknown version,
// truncation, payload bit-flips, and trailing garbage lengths.
func TestSnapshotIORejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, sampleSnapshot()); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	good := buf.Bytes()

	corrupt := func(name string, mutate func(b []byte) []byte) {
		b := append([]byte(nil), good...)
		b = mutate(b)
		if _, err := ReadSnapshot(bytes.NewReader(b)); !errors.Is(err, ErrSnapshotFormat) {
			t.Errorf("%s: err = %v, want ErrSnapshotFormat", name, err)
		}
	}
	corrupt("bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b })
	corrupt("unknown version", func(b []byte) []byte { b[8] = 0xEE; return b })
	corrupt("truncated header", func(b []byte) []byte { return b[:10] })
	corrupt("truncated payload", func(b []byte) []byte { return b[:len(b)-8] })
	corrupt("payload bit flip", func(b []byte) []byte { b[25] ^= 0x01; return b })
	corrupt("checksum flip", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b })
}

// TestSnapshotRestoreValidates checks RestoreSnapshot rejects snapshots
// that do not fit the machine instead of corrupting it.
func TestSnapshotRestoreValidates(t *testing.T) {
	cfg := Config{N: 12, P: 4, MaxTicks: 1000}
	m, err := New(cfg, snapAlg{}, churnAdversary())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer m.Close()

	snap, err := m.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(s *Snapshot)
	}{
		{"wrong N", func(s *Snapshot) { s.N = 13 }},
		{"wrong P", func(s *Snapshot) { s.P = 5 }},
		{"wrong algorithm", func(s *Snapshot) { s.Algorithm = "other" }},
		{"wrong adversary", func(s *Snapshot) { s.Adversary = "other" }},
		{"wrong memory size", func(s *Snapshot) { s.Mem = s.Mem[:3] }},
		{"short states", func(s *Snapshot) { s.States = s.States[:2] }},
		{"invalid state", func(s *Snapshot) { s.States[1] = 99 }},
	} {
		bad := *snap
		bad.Mem = append([]Word(nil), snap.Mem...)
		bad.States = append([]ProcState(nil), snap.States...)
		tc.mutate(&bad)
		if err := m.RestoreSnapshot(&bad); err == nil {
			t.Errorf("%s: RestoreSnapshot accepted a mismatched snapshot", tc.name)
		}
	}
	// The pristine snapshot must still restore.
	if err := m.RestoreSnapshot(snap); err != nil {
		t.Errorf("RestoreSnapshot (pristine): %v", err)
	}
}

// TestRunnerCheckpointAndResume drives a churny run with periodic
// checkpointing, then resumes the last checkpoint on the same (pooled)
// runner and on a fresh machine; both must finish with the uninterrupted
// run's metrics and memory.
func TestRunnerCheckpointAndResume(t *testing.T) {
	cfg := Config{N: 48, P: 6, MaxTicks: 4000}

	baseline, err := (&Runner{}).Run(cfg, snapAlg{}, churnAdversary())
	if err != nil {
		t.Fatalf("baseline Run: %v", err)
	}

	path := filepath.Join(t.TempDir(), "run.snap")
	r := &Runner{CheckpointEvery: 3, CheckpointPath: path}
	full, err := r.Run(cfg, snapAlg{}, churnAdversary())
	if err != nil {
		t.Fatalf("checkpointed Run: %v", err)
	}
	if full != baseline {
		t.Errorf("checkpointing changed the run: %+v vs %+v", full, baseline)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint file missing: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temporary checkpoint file left behind (err=%v)", err)
	}

	snap, err := LoadSnapshot(path)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if snap.Tick <= 0 || snap.Tick >= baseline.Ticks {
		t.Fatalf("checkpoint tick = %d, want inside (0, %d)", snap.Tick, baseline.Ticks)
	}
	resumed, err := r.Resume(cfg, snapAlg{}, churnAdversary(), snap)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if resumed != baseline {
		t.Errorf("resumed metrics diverge:\nresumed  %+v\nbaseline %+v", resumed, baseline)
	}
}
