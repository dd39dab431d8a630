package symbos

import "fmt"

// Handle is a raw handle number into a process's object index.
type Handle int

// KObject is a kernel-side object referenced through handles: a server
// session, a mutex, a timer channel, and so on. CObject-style reference
// counting is included because its misuse is one of the heap-management
// panics of Table 2 (E32USER-CBase 33).
type KObject struct {
	name string
	kind string
	refs int
	open bool
}

// Name returns the object name.
func (o *KObject) Name() string { return o.name }

// Kind returns the object kind (diagnostic only).
func (o *KObject) Kind() string { return o.kind }

// Refs returns the current reference count.
func (o *KObject) Refs() int { return o.refs }

// Open reports whether the object is still live in the index.
func (o *KObject) Open() bool { return o.open }

// OpenObject creates a kernel object in the process's object index with a
// reference count of one and returns its handle.
func (p *Process) OpenObject(kind, name string) Handle {
	return p.openObject(&KObject{}, kind, name)
}

// openObject enters o, initialised with a reference count of one, in the
// object index. Callers that own the object's storage (a Session embeds its
// own) pass it in.
func (p *Process) openObject(o *KObject, kind, name string) Handle {
	*o = KObject{name: name, kind: kind, refs: 1, open: true}
	p.nextH++
	p.enter(p.nextH, o)
	return p.nextH
}

// enter binds handle h to o. The index is a slice by handle number (h-1),
// nil where a handle was closed or never entered (CorruptHandle skips
// numbers), so a process that opens one handle allocates one pointer.
func (p *Process) enter(h Handle, o *KObject) {
	for len(p.objs) < int(h) {
		p.objs = append(p.objs, nil)
	}
	p.objs[h-1] = o
	p.liveHandles++
}

// lookup returns the object behind h, or nil when h is not in the index.
func (p *Process) lookup(h Handle) *KObject {
	if h < 1 || int(h) > len(p.objs) {
		return nil
	}
	return p.objs[h-1]
}

// FindObject resolves a raw handle through the Kernel Executive. An
// unknown handle raises KERN-EXEC 0: "the Kernel Executive cannot find an
// object in the object index ... using the specified object index number".
func (p *Process) FindObject(h Handle) *KObject {
	o := p.lookup(h)
	if o == nil || !o.open {
		p.kernel.Raise(CatKernExec, TypeBadHandle,
			fmt.Sprintf("object index has no object for raw handle %d", h))
	}
	return o
}

// DuplicateHandle adds a reference to the object behind h and returns a new
// handle to it.
func (p *Process) DuplicateHandle(h Handle) Handle {
	o := p.FindObject(h)
	o.refs++
	p.nextH++
	p.enter(p.nextH, o)
	return p.nextH
}

// CloseHandle is RHandleBase::Close routed through the Kernel Server. A
// corrupt handle — one whose object cannot be found — raises KERN-SVR 0.
func (p *Process) CloseHandle(h Handle) {
	o := p.lookup(h)
	if o == nil {
		p.kernel.Raise(CatKernSvr, TypeSvrBadHandle,
			fmt.Sprintf("Kernel Server cannot find object for handle %d (corrupt handle)", h))
	}
	p.objs[h-1] = nil
	p.liveHandles--
	o.refs--
	if o.refs <= 0 {
		o.open = false
	}
}

// CorruptHandle returns a handle value guaranteed not to resolve — the
// fault model uses it to plant the dangling-handle defects behind
// KERN-EXEC 0 and KERN-SVR 0.
func (p *Process) CorruptHandle() Handle {
	p.nextH++
	return p.nextH + 7919 // never entered into the index
}

// HandleCount returns the number of live handles in the process.
func (p *Process) HandleCount() int { return p.liveHandles }

// CObject is a reference-counted container object (class CObject). Its
// destructor panics with E32USER-CBase 33 when the reference count is not
// zero — "raised by the destructor of a CObject ... if an attempt is made
// to delete the CObject when the reference count is not zero".
type CObject struct {
	kernel *Kernel
	name   string
	refs   int
	dead   bool
}

// NewCObject creates a CObject with a single reference.
func NewCObject(k *Kernel, name string) *CObject {
	return &CObject{kernel: k, name: name, refs: 1}
}

// Name returns the object's name.
func (o *CObject) Name() string { return o.name }

// Refs returns the current reference count.
func (o *CObject) Refs() int { return o.refs }

// Dead reports whether the object has been destroyed.
func (o *CObject) Dead() bool { return o.dead }

// AddRef takes an additional reference (CObject::Open).
func (o *CObject) AddRef() { o.refs++ }

// Release drops a reference (CObject::Close), destroying the object when
// the count reaches zero.
func (o *CObject) Release() {
	o.refs--
	if o.refs <= 0 {
		o.dead = true
	}
}

// Delete runs the destructor directly. Deleting with references remaining
// raises E32USER-CBase 33.
func (o *CObject) Delete() {
	o.refs-- // the destructor consumes the caller's reference
	if o.refs > 0 {
		o.kernel.Raise(CatE32UserCBase, TypeObjectRefsRemain,
			fmt.Sprintf("CObject %q deleted with reference count %d", o.name, o.refs+1))
	}
	o.dead = true
}
