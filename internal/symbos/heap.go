package symbos

import "fmt"

// Heap is a process heap. It models the two properties the study cares
// about: allocation failure must be recoverable via leave (memory is
// scarce on a phone), and misuse — double frees, dangling pointers —
// manifests as KERN-EXEC 3 access violations, the dominant panic in
// Table 2.
type Heap struct {
	kernel    *Kernel
	limit     int
	allocated int
	nextID    int
	cells     map[int]*Cell // live cells; allocated on first AllocL
	allocs    uint64
	frees     uint64
}

// Cell is one heap allocation.
type Cell struct {
	id    int
	size  int
	freed bool
	heap  *Heap
	tag   string
}

// Size returns the cell's size in bytes.
func (c *Cell) Size() int { return c.size }

// Freed reports whether the cell has been released.
func (c *Cell) Freed() bool { return c.freed }

// Tag returns the allocation tag (for diagnostics and leak reports).
func (c *Cell) Tag() string { return c.tag }

// AllocL allocates size bytes, leaving with KErrNoMemory when the heap
// quota is exhausted (User::AllocL semantics). It must be called from a
// thread context so the leave can be trapped.
func (h *Heap) AllocL(t *Thread, size int, tag string) *Cell {
	if size <= 0 {
		h.kernel.Raise(CatE32UserCBase, TypeCBase91,
			fmt.Sprintf("heap alloc of non-positive size %d", size))
	}
	if h.allocated+size > h.limit {
		t.Leave(KErrNoMemory)
	}
	h.nextID++
	c := &Cell{id: h.nextID, size: size, heap: h, tag: tag}
	if h.cells == nil {
		h.cells = make(map[int]*Cell)
	}
	h.cells[c.id] = c
	h.allocated += size
	h.allocs++
	return c
}

// Free releases a cell. Releasing a cell twice, or a cell from another
// heap, is heap corruption: on real hardware this turns into an access
// violation sooner or later, so the kernel raises KERN-EXEC 3.
func (h *Heap) Free(c *Cell) {
	if c == nil {
		return // Symbian User::Free(NULL) is a no-op
	}
	if c.heap != h {
		h.kernel.Raise(CatKernExec, TypeUnhandledException,
			"access violation: freeing a cell owned by another heap")
	}
	if c.freed {
		h.kernel.Raise(CatKernExec, TypeUnhandledException,
			"access violation: double free of heap cell "+c.tag)
	}
	c.freed = true
	h.allocated -= c.size
	delete(h.cells, c.id)
	h.frees++
}

// Allocated returns the number of live bytes.
func (h *Heap) Allocated() int { return h.allocated }

// Limit returns the heap quota in bytes.
func (h *Heap) Limit() int { return h.limit }

// SetLimit adjusts the quota (used to model memory pressure).
func (h *Heap) SetLimit(n int) { h.limit = n }

// LiveCells returns the number of outstanding allocations — nonzero at
// application exit means a leak, the defect class the forum study blames
// for "random wallpaper disappearing and power cycling".
func (h *Heap) LiveCells() int { return len(h.cells) }

// Counts returns cumulative allocation and free counts.
func (h *Heap) Counts() (allocs, frees uint64) { return h.allocs, h.frees }

// Ptr is a simulated pointer: possibly nil, possibly dangling. Its Deref
// is the mechanistic source of KERN-EXEC 3 — the paper's most frequent
// panic, "caused, for example, by dereferencing NULL".
type Ptr struct {
	cell   *Cell
	kernel *Kernel
}

// NullPtr returns a nil pointer whose dereference raises KERN-EXEC 3.
func NullPtr(k *Kernel) Ptr { return Ptr{kernel: k} }

// PtrTo returns a pointer to the given cell.
func PtrTo(k *Kernel, c *Cell) Ptr { return Ptr{cell: c, kernel: k} }

// Nil reports whether the pointer is null.
func (p Ptr) Nil() bool { return p.cell == nil }

// Dangling reports whether the pointer refers to freed memory.
func (p Ptr) Dangling() bool { return p.cell != nil && p.cell.freed }

// Deref accesses the pointed-to memory. A null or dangling pointer raises
// KERN-EXEC 3 (unhandled exception / access violation).
func (p Ptr) Deref() *Cell {
	if p.cell == nil {
		p.kernel.Raise(CatKernExec, TypeUnhandledException,
			"access violation: dereferencing NULL")
	}
	if p.cell.freed {
		p.kernel.Raise(CatKernExec, TypeUnhandledException,
			"access violation: dereferencing freed cell "+p.cell.tag)
	}
	return p.cell
}

// TwoPhaseConstructL models Symbian's two-phase construction paradigm
// (section 2): allocate the object, push it on the cleanup stack, run the
// second-phase constructor (which may leave), then pop. If construction
// leaves, the cleanup stack frees the partially constructed object, so no
// memory leaks even on the error path.
func TwoPhaseConstructL(t *Thread, h *Heap, size int, tag string, constructL func(*Cell)) *Cell {
	c := h.AllocL(t, size, tag)
	t.PushL(func() { h.Free(c) })
	constructL(c)
	t.Pop(1)
	return c
}
