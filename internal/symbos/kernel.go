package symbos

import (
	"fmt"
	"sort"

	"symfail/internal/sim"
)

// PanicHandler is the kernel's recovery policy hook. The device layer
// installs one to decide, per panic, whether to terminate the offending
// application, reboot the phone, or freeze (section 2: "information
// associated with a panic is delivered to the kernel, which decides on the
// recovery action"). Handlers must not re-enter the kernel synchronously;
// they should record the panic and schedule any recovery via the engine.
//
// When no handler is installed the kernel applies the default policy:
// terminate the panicking process.
type PanicHandler func(*Panic, *Process)

// Kernel is one booted instance of the simulated OS. The device layer
// creates a fresh Kernel on every boot; freezing the phone halts the kernel
// so that nothing (including the logger's heartbeat) runs until reboot.
type Kernel struct {
	eng     *sim.Engine
	procs   map[string]*Process
	current *Thread
	rdebug  []func(*Panic)
	handler PanicHandler
	halted  bool
	onStop  func()

	// ViewSrvTimeout is how long a single RunL may monopolise an
	// active scheduler before the View Server declares the application
	// unresponsive (ViewSrv 11). The real server uses ~10 s.
	ViewSrvTimeout sim.Duration

	panicsRaised int

	// ipcScratch is the Message every synchronous request borrows while
	// ipcBusy is clear (see acquire). The kernel belongs to one device and
	// one engine goroutine, so the scratch is never shared across workers.
	ipcScratch Message
	ipcBusy    bool
}

// NewKernel boots a kernel on the given engine.
func NewKernel(eng *sim.Engine) *Kernel {
	return &Kernel{
		eng:            eng,
		procs:          make(map[string]*Process),
		ViewSrvTimeout: 10e9, // 10 s in nanoseconds
	}
}

// Engine returns the discrete-event engine driving this kernel.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Now returns the current virtual time.
func (k *Kernel) Now() sim.Time { return k.eng.Now() }

// Halted reports whether the kernel has been frozen.
func (k *Kernel) Halted() bool { return k.halted }

// Halt freezes the kernel: every subsequent Exec becomes a no-op, which is
// exactly what a phone freeze looks like from software (section 4: "the
// device's output becomes constant and the device does not respond").
func (k *Kernel) Halt() {
	if !k.halted && k.onStop != nil {
		k.onStop()
	}
	k.halted = true
}

// SetStopHook installs fn to run just before Halt and TerminateProcess
// take effect, while every process is still as it was: the last instant
// at which work an application has deferred (the logger's owed
// heartbeats) can still be done as if it had been done on time. One hook
// per kernel; fn must not re-enter the kernel.
func (k *Kernel) SetStopHook(fn func()) { k.onStop = fn }

// PanicsRaised returns the number of panics dispatched since boot.
func (k *Kernel) PanicsRaised() int { return k.panicsRaised }

// SetPanicHandler installs the recovery policy hook.
func (k *Kernel) SetPanicHandler(h PanicHandler) { k.handler = h }

// SubscribeRDebug registers a callback invoked for every panic delivered to
// the kernel. This models the RDebug notification service of the Kernel
// Server that the paper's Panic Detector exploits (section 5.1).
func (k *Kernel) SubscribeRDebug(fn func(*Panic)) { k.rdebug = append(k.rdebug, fn) }

// StartProcess creates a process with a single main thread. system marks
// critical system servers, whose panics the paper observes to reboot the
// phone rather than merely terminating an application.
func (k *Kernel) StartProcess(name string, system bool) *Process {
	if old, ok := k.procs[name]; ok && old.alive {
		panic(fmt.Sprintf("symbos: duplicate process %q", name))
	}
	// One allocation per launch: the main thread, its active scheduler and
	// the heap are fields of the Process. The main thread's name is built
	// on first use (Thread.Name).
	p := &Process{name: name, system: system, alive: true, kernel: k}
	p.ownHeap = Heap{kernel: k, limit: defaultHeapLimit}
	p.heap = &p.ownHeap
	p.mainThread = Thread{proc: p, cleanupInstalled: true}
	p.mainSched.thread = &p.mainThread
	p.mainThread.scheduler = &p.mainSched
	p.main = &p.mainThread
	p.threadBuf[0] = p.main
	p.threads = p.threadBuf[:1]
	k.procs[name] = p
	return p
}

// Process returns the named process, or nil.
func (k *Kernel) Process(name string) *Process { return k.procs[name] }

// Processes returns all live processes in deterministic (name) order.
func (k *Kernel) Processes() []*Process {
	names := make([]string, 0, len(k.procs))
	for n, p := range k.procs {
		if p.alive {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	out := make([]*Process, 0, len(names))
	for _, n := range names {
		out = append(out, k.procs[n])
	}
	return out
}

// TerminateProcess kills a process: its threads stop, its pending active
// object completions are discarded, and it disappears from the running set.
func (k *Kernel) TerminateProcess(p *Process) {
	if p == nil || !p.alive {
		return
	}
	if k.onStop != nil {
		k.onStop()
	}
	p.alive = false
	for _, t := range p.threads {
		t.scheduler.shutdown()
	}
}

// Exec runs fn in the context of thread t, establishing the panic boundary:
// any Symbian panic raised inside fn is recovered here, delivered to the
// kernel (RDebug subscribers first, then the recovery policy), and returned.
// A nil return means fn completed without panicking. Exec on a halted
// kernel or a dead process/thread is a no-op.
func (k *Kernel) Exec(t *Thread, label string, fn func()) (p *Panic) {
	if k.halted || t == nil || !t.proc.alive {
		return nil
	}
	prev := k.current
	k.current = t
	defer func() {
		k.current = prev
		r := recover()
		if r == nil {
			return
		}
		pan, ok := r.(*Panic)
		if !ok {
			if lv, isLeave := r.(leave); isLeave {
				// A leave escaping all traps means the thread had no
				// trap handler installed (E32USER-CBase 69 in practice).
				pan = &Panic{
					Category: CatE32UserCBase,
					Type:     TypeNoTrapHandler,
					Reason:   "leave " + ErrName(lv.code) + " with no trap handler installed",
					Time:     k.eng.Now(),
					Process:  t.proc.name,
					Thread:   t.Name(),
					System:   t.proc.system,
				}
			} else {
				panic(r) // a genuine Go bug in the simulator: do not mask
			}
		}
		k.dispatch(pan)
		p = pan
	}()
	fn()
	return nil
}

// Raise signals a panic from the currently executing thread. It must be
// called from inside an Exec context; the surrounding Exec recovers it.
func (k *Kernel) Raise(cat Category, typ int, reason string) {
	p := &Panic{
		Category: cat,
		Type:     typ,
		Reason:   reason,
		Time:     k.eng.Now(),
	}
	if k.current != nil {
		p.Process = k.current.proc.name
		p.Thread = k.current.Name()
		p.System = k.current.proc.system
	} else {
		p.Process = "?"
		p.Thread = "?"
	}
	panic(p)
}

// dispatch delivers a recovered panic: RDebug subscribers see it first (the
// Panic Detector), then the recovery policy decides what happens.
func (k *Kernel) dispatch(p *Panic) {
	k.panicsRaised++
	for _, fn := range k.rdebug {
		fn(p)
	}
	if k.handler != nil {
		k.handler(p, k.procs[p.Process])
		return
	}
	if proc := k.procs[p.Process]; proc != nil {
		k.TerminateProcess(proc)
	}
}
