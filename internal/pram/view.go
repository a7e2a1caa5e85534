package pram

// MemoryView is an immutable, read-only view of the shared memory as of
// the start of a tick. Update cycles and adversaries receive a MemoryView
// rather than the *Memory itself: within a tick all writes are buffered
// and committed synchronously afterwards, so every reader of the view
// observes the same pre-tick snapshot.
type MemoryView struct {
	mem *Memory
}

// View returns a read-only view of the memory.
func (m *Memory) View() MemoryView { return MemoryView{mem: m} }

// Size returns the number of addressable cells.
func (v MemoryView) Size() int { return v.mem.Size() }

// Load returns the value at addr.
func (v MemoryView) Load(addr int) Word { return v.mem.Load(addr) }

// CopyInto copies the whole memory into dst, growing it if needed, and
// returns the destination slice (the Theorem 3.2 snapshot instruction).
func (v MemoryView) CopyInto(dst []Word) []Word { return v.mem.CopyInto(dst) }

// Slice returns a copy of the region [start, start+n); see Memory.Slice
// for why it never aliases machine state.
func (v MemoryView) Slice(start, n int) []Word { return v.mem.Slice(start, n) }

// StateView is an immutable, read-only view of processor liveness at the
// start of a tick.
type StateView struct {
	states []ProcState
}

// Len returns the number of processors.
func (s StateView) Len() int { return len(s.states) }

// At returns processor pid's liveness.
func (s StateView) At(pid int) ProcState { return s.states[pid] }
