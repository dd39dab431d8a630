package phone

import (
	"sync"
	"time"

	"symfail/internal/symbos"
)

// faultProfile describes one defect class: the panic it manifests as (via a
// mechanistic misuse of a symbos API), how often it occurs relative to the
// other classes (Table 2 weights), which activity contexts it is bound to,
// and the probabilities that the resulting panic escalates into a
// high-level event (Figure 5b).
type faultProfile struct {
	cat    symbos.Category
	typ    int
	weight float64 // relative frequency, in Table 2 percentage points

	// freezeP/shutdownP is the chance the *primary* panic escalates into a
	// phone freeze / self-shutdown (the remainder terminates only the
	// offending application).
	freezeP, shutdownP float64

	inject func(f *faultModel)
}

// Context groups. USER descriptor panics and ViewSrv starvation manifest
// only during voice calls; Phone.app assertions only while a message is
// being sent or received (section 6, Table 3). Everything else can trigger
// anywhere, with the activity-risk multipliers doing the weighting.
type contextClass int

const (
	ctxAny contextClass = iota + 1
	ctxCallOnly
	ctxMessageOnly
)

// faultModel owns the defect classes of one device and orchestrates panic
// cascades (Figure 3) and their escalation into freezes and self-shutdowns.
type faultModel struct {
	d *Device

	// The profile tables and their weight vectors alias the shared
	// package-level tables — they are pure Table 2 constants, identical
	// for every device, and building them per device cost ~4KB × fleet
	// size at the million-phone scale.
	anyP, callP, msgP []faultProfile
	anyW, callW, msgW []float64

	inBurst        bool
	burstRemaining int
	outcomeByKey   map[string]faultProfile
}

// sharedFaultTables holds the device-independent defect-class tables,
// built once on first use. Read-only after construction, so sharing them
// across devices (and shards) is safe.
var sharedFaultTables struct {
	once              sync.Once
	anyP, callP, msgP []faultProfile
	anyW, callW, msgW []float64
	outcomeByKey      map[string]faultProfile
}

func newFaultModel(d *Device) *faultModel {
	t := &sharedFaultTables
	t.once.Do(buildFaultTables)
	return &faultModel{
		d:    d,
		anyP: t.anyP, callP: t.callP, msgP: t.msgP,
		anyW: t.anyW, callW: t.callW, msgW: t.msgW,
		outcomeByKey: t.outcomeByKey,
	}
}

func buildFaultTables() {
	t := &sharedFaultTables
	t.outcomeByKey = make(map[string]faultProfile)
	add := func(ctx contextClass, p faultProfile) {
		switch ctx {
		case ctxCallOnly:
			t.callP = append(t.callP, p)
			t.callW = append(t.callW, p.weight)
		case ctxMessageOnly:
			t.msgP = append(t.msgP, p)
			t.msgW = append(t.msgW, p.weight)
		default:
			t.anyP = append(t.anyP, p)
			t.anyW = append(t.anyW, p.weight)
		}
		t.outcomeByKey[symbos.PanicKey(p.cat, p.typ)] = p
	}

	// Weights are the paper's Table 2 percentages; outcome probabilities
	// are calibrated so that ~51% of panics relate to an HL event
	// (Figure 5a) with the per-category structure of Figure 5b: UI/audio
	// application panics never escalate, Phone.app and MSGS Client always
	// reboot the phone, KERN-EXEC 3 drives both freezes and shutdowns.
	add(ctxAny, faultProfile{symbos.CatKernExec, symbos.TypeBadHandle, 6.31, 0.40, 0.10, (*faultModel).injectBadHandle})
	add(ctxAny, faultProfile{symbos.CatKernExec, symbos.TypeUnhandledException, 56.31, 0.25, 0.20, (*faultModel).injectAccessViolation})
	add(ctxAny, faultProfile{symbos.CatKernExec, symbos.TypeTimerInUse, 0.51, 0.50, 0, (*faultModel).injectTimerInUse})
	add(ctxAny, faultProfile{symbos.CatE32UserCBase, symbos.TypeObjectRefsRemain, 5.56, 0.45, 0.10, (*faultModel).injectObjectRefsRemain})
	add(ctxAny, faultProfile{symbos.CatE32UserCBase, symbos.TypeStraySignal, 0.76, 0.45, 0.10, (*faultModel).injectStraySignal})
	add(ctxAny, faultProfile{symbos.CatE32UserCBase, symbos.TypeRunLLeft, 0.25, 0.45, 0.10, (*faultModel).injectRunLLeave})
	add(ctxAny, faultProfile{symbos.CatE32UserCBase, symbos.TypeNoTrapHandler, 10.10, 0.45, 0.10, (*faultModel).injectNoTrapHandler})
	add(ctxAny, faultProfile{symbos.CatE32UserCBase, symbos.TypeCBase91, 0.51, 0.45, 0.10, (*faultModel).injectPopUnderflow})
	add(ctxAny, faultProfile{symbos.CatE32UserCBase, symbos.TypeCBase92, 0.76, 0.45, 0.10, (*faultModel).injectPopDestroyUnderflow})
	add(ctxAny, faultProfile{symbos.CatUser, symbos.TypeNullMessageHandle, 0.76, 0.45, 0.10, (*faultModel).injectNullMessagePtr})
	add(ctxAny, faultProfile{symbos.CatKernSvr, symbos.TypeSvrBadHandle, 0.25, 0, 0, (*faultModel).injectCorruptClose})
	add(ctxAny, faultProfile{symbos.CatEikonListbox, symbos.TypeListboxNoView, 0.25, 0, 0, (*faultModel).injectListboxNoView})
	add(ctxAny, faultProfile{symbos.CatEikonListbox, symbos.TypeListboxInvalidIndex, 0.76, 0, 0, (*faultModel).injectListboxBadIndex})
	add(ctxAny, faultProfile{symbos.CatEikCoCtl, symbos.TypeEdwinCorrupt, 0.25, 0, 0, (*faultModel).injectEdwinCorrupt})
	add(ctxAny, faultProfile{symbos.CatMMFAudioClient, symbos.TypeVolumeOutOfRange, 0.25, 0, 0, (*faultModel).injectVolume})
	add(ctxAny, faultProfile{symbos.CatMsgsClient, symbos.TypeMsgsAsyncWrite, 6.31, 0, 1.0, (*faultModel).injectMsgsOverflow})

	add(ctxCallOnly, faultProfile{symbos.CatUser, symbos.TypeDesIndexOutOfRange, 1.52, 0.45, 0.10, (*faultModel).injectDesOutOfRange})
	add(ctxCallOnly, faultProfile{symbos.CatUser, symbos.TypeDesOverflow, 5.81, 0.45, 0.10, (*faultModel).injectDesOverflow})
	add(ctxCallOnly, faultProfile{symbos.CatViewSrv, symbos.TypeViewSrvStarved, 2.53, 0.60, 0, (*faultModel).injectViewSrvStarvation})

	add(ctxMessageOnly, faultProfile{symbos.CatPhoneApp, symbos.TypePhoneAppInternal, 0.25, 0, 1.0, (*faultModel).injectPhoneAppAssert})
}

// pick draws a profile from a set, weighted by Table 2 frequency. weights
// is the set's precomputed weight vector (same order).
func (f *faultModel) pick(set []faultProfile, weights []float64) faultProfile {
	return set[f.d.rng.WeightedIndex(weights)]
}

// trigger fires one primary defect opportunity: choose a defect class
// consistent with the current activity and execute its misuse.
func (f *faultModel) trigger() {
	d := f.d
	var p faultProfile
	switch d.currentActivity {
	case ActVoiceCall:
		if d.rng.Bool(d.cfg.CallOnlyBias) {
			p = f.pick(f.callP, f.callW)
		} else {
			p = f.pick(f.anyP, f.anyW)
		}
	case ActMessage:
		if d.rng.Bool(d.cfg.MessageOnlyBias) {
			p = f.pick(f.msgP, f.msgW)
		} else {
			p = f.pick(f.anyP, f.anyW)
		}
	default:
		p = f.pick(f.anyP, f.anyW)
	}
	f.inBurst = false
	p.inject(f)
}

// afterPanic is called by the device's kernel panic handler for every panic
// (primary or cascade follower). It terminates the offending application,
// decides whether the failure propagates into a cascade, and whether the
// phone freezes or reboots.
func (f *faultModel) afterPanic(p *symbos.Panic, proc *symbos.Process) {
	d := f.d
	if proc != nil && !proc.System() {
		d.kernel.TerminateProcess(proc)
	}
	if f.inBurst {
		// A follower in an ongoing cascade: maybe keep propagating.
		f.burstRemaining--
		if f.burstRemaining > 0 {
			f.scheduleFollower()
		}
		return
	}

	prof, known := f.outcomeByKey[p.Key()]
	freezeP, shutdownP := 0.0, 0.0
	if known {
		freezeP, shutdownP = prof.freezeP, prof.shutdownP
	}
	if p.System {
		// A panic inside a critical system server always reboots the
		// phone ("the OS kernel always reboots the phone if any of these
		// applications fails").
		freezeP, shutdownP = 0, 1
	}

	followers := 0
	if d.rng.Bool(d.cfg.BurstProb) {
		followers = 1 + d.rng.Geometric(1-d.cfg.BurstContinue)
		f.inBurst = true
		f.burstRemaining = followers
		f.scheduleFollower()
	}

	// The HL event, if any, lands after the cascade has played out.
	hlDelay := time.Duration(followers+2)*2*d.cfg.BurstGap + d.rng.ExpDuration(5*time.Second)
	gen := d.bootGen
	cause := "panic " + p.Key()
	switch r := d.rng.Float64(); {
	case r < freezeP:
		d.eng.After(hlDelay, d.label(lblPanicFreeze), func() {
			if d.live(gen) {
				d.Freeze(cause)
			}
		})
	case r < freezeP+shutdownP:
		d.eng.After(hlDelay, d.label(lblPanicShutdown), func() {
			if d.live(gen) {
				d.SelfShutdown(cause)
			}
		})
	}
}

// scheduleFollower queues the next panic of a cascade: error propagation
// between applications, typically from real-time tasks into interactive
// applications (section 1).
func (f *faultModel) scheduleFollower() {
	d := f.d
	gen := d.bootGen
	gap := d.rng.LogNormalDuration(d.cfg.BurstGap, 0.5)
	d.eng.After(gap, d.label(lblBurstPanic), func() {
		if !d.live(gen) {
			f.inBurst = false
			return
		}
		f.inBurst = true
		p := f.pick(f.anyP, f.anyW)
		p.inject(f)
		f.inBurst = false
	})
}

// victim returns the application that hosts the next misuse: the foreground
// application when an activity is in progress, otherwise a random running
// application, otherwise the idle shell.
func (f *faultModel) victim() *App {
	d := f.d
	if d.currentActivity != ActIdle {
		if names := activityApps[d.currentActivity]; len(names) > 0 {
			if a, ok := d.apps[names[0]]; ok && a.Alive() {
				return a
			}
		}
	}
	if a := d.randomRunningApp(); a != nil {
		return a
	}
	return d.shellApp()
}

// victimNamed makes sure a specific app hosts the misuse (launching it if
// necessary — e.g. the telephony stack is always resident).
func (f *faultModel) victimNamed(name string) *App {
	return f.d.LaunchApp(name)
}

// Injection methods: each performs the real API misuse behind its panic
// class, in the victim application's thread. The kernel's Exec boundary
// turns the misuse into a dispatched panic; nothing below fabricates a
// panic record directly.

func (f *faultModel) exec(a *App, fn func(k *symbos.Kernel, t *symbos.Thread)) {
	k := f.d.kernel
	t := a.proc.Main()
	k.Exec(t, "fault "+a.name, func() { fn(k, t) })
}

// injectAccessViolation: dereference NULL, dereference freed memory, or
// corrupt the heap with a double free — all KERN-EXEC 3.
func (f *faultModel) injectAccessViolation() {
	a := f.victim()
	f.exec(a, func(k *symbos.Kernel, t *symbos.Thread) {
		h := a.proc.Heap()
		switch f.d.rng.Intn(3) {
		case 0:
			symbos.NullPtr(k).Deref()
		case 1:
			c := h.AllocL(t, 16, "stale-view")
			p := symbos.PtrTo(k, c)
			h.Free(c)
			p.Deref()
		default:
			c := h.AllocL(t, 16, "shared-buffer")
			h.Free(c)
			h.Free(c)
		}
	})
}

// injectBadHandle: use a raw handle that is not in the object index
// (KERN-EXEC 0).
func (f *faultModel) injectBadHandle() {
	a := f.victim()
	f.exec(a, func(k *symbos.Kernel, t *symbos.Thread) {
		a.proc.FindObject(a.proc.CorruptHandle())
	})
}

// injectTimerInUse: request a timer event while one is outstanding
// (KERN-EXEC 15).
func (f *faultModel) injectTimerInUse() {
	a := f.victim()
	f.exec(a, func(k *symbos.Kernel, t *symbos.Thread) {
		ao := t.NewActiveObject("poll", 1, func(int) {})
		tm := symbos.NewTimer(ao)
		tm.After(time.Second)
		tm.After(time.Second)
	})
}

// injectObjectRefsRemain: delete a CObject while references remain
// (E32USER-CBase 33).
func (f *faultModel) injectObjectRefsRemain() {
	a := f.victim()
	f.exec(a, func(k *symbos.Kernel, t *symbos.Thread) {
		o := symbos.NewCObject(k, "session-container")
		o.AddRef()
		o.Delete()
	})
}

// injectStraySignal: complete an active object that never called SetActive
// (E32USER-CBase 46). The panic fires at the next scheduler dispatch.
func (f *faultModel) injectStraySignal() {
	a := f.victim()
	f.exec(a, func(k *symbos.Kernel, t *symbos.Thread) {
		ao := t.NewActiveObject("notifier", 1, func(int) {})
		ao.Complete(symbos.KErrNone)
	})
}

// injectRunLLeave: an active object whose RunL leaves with Error() not
// replaced (E32USER-CBase 47).
func (f *faultModel) injectRunLLeave() {
	a := f.victim()
	f.exec(a, func(k *symbos.Kernel, t *symbos.Thread) {
		ao := t.NewActiveObject("fetcher", 1, func(int) {
			t.Leave(symbos.KErrNoMemory)
		})
		ao.SetActive()
		ao.Complete(symbos.KErrNone)
	})
}

// injectNoTrapHandler: a worker thread that uses the cleanup stack without
// ever creating a CTrapCleanup (E32USER-CBase 69).
func (f *faultModel) injectNoTrapHandler() {
	a := f.victim()
	worker := a.proc.SpawnThread(a.name + "::Worker")
	worker.DropCleanupStack()
	f.d.kernel.Exec(worker, "fault "+a.name, func() {
		worker.PushL(func() {})
	})
}

// injectPopUnderflow / injectPopDestroyUnderflow: unbalanced cleanup-stack
// pops (the undocumented E32USER-CBase 91/92 internal assertions).
func (f *faultModel) injectPopUnderflow() {
	a := f.victim()
	f.exec(a, func(k *symbos.Kernel, t *symbos.Thread) {
		t.Pop(1)
	})
}

func (f *faultModel) injectPopDestroyUnderflow() {
	a := f.victim()
	f.exec(a, func(k *symbos.Kernel, t *symbos.Thread) {
		t.PopAndDestroy(2)
	})
}

// injectNullMessagePtr: the victim's in-process service completes a request
// through a null RMessagePtr (USER 70). The panic lands in the victim
// (server-side), driven by a request from the idle shell.
func (f *faultModel) injectNullMessagePtr() {
	a := f.victim()
	shell := f.d.shellApp()
	f.d.kernel.Exec(shell.proc.Main(), "fault-client", func() {
		sess := a.service().Connect(shell.proc.Main())
		sess.SendReceive(OpCorruptComplete, "", nil)
	})
}

// injectCorruptClose: close a session through a corrupt handle (KERN-SVR 0).
func (f *faultModel) injectCorruptClose() {
	a := f.victim()
	f.exec(a, func(k *symbos.Kernel, t *symbos.Thread) {
		sess := f.d.appArch.Connect(t)
		sess.CorruptSessionHandle()
		sess.Close()
	})
}

// injectListboxNoView / injectListboxBadIndex: eikon list box misuse
// (EIKON-LISTBOX 3 / 5).
func (f *faultModel) injectListboxNoView() {
	a := f.victim()
	f.exec(a, func(k *symbos.Kernel, t *symbos.Thread) {
		lb := symbos.NewListBox(k)
		lb.AddItem("entry")
		lb.DetachView()
		lb.Draw()
	})
}

func (f *faultModel) injectListboxBadIndex() {
	a := f.victim()
	f.exec(a, func(k *symbos.Kernel, t *symbos.Thread) {
		lb := symbos.NewListBox(k)
		lb.AddItem("only")
		lb.SetCurrentItem(1 + f.d.rng.Intn(5))
	})
}

// injectEdwinCorrupt: corrupt inline-editing state (EIKCOCTL 70).
func (f *faultModel) injectEdwinCorrupt() {
	a := f.victim()
	f.exec(a, func(k *symbos.Kernel, t *symbos.Thread) {
		ed := symbos.NewEdwin(k, 160)
		ed.BeginInlineEdit()
		ed.CorruptInlineState()
		ed.CommitInlineEdit("predictive")
	})
}

// injectVolume: SetVolume with a value of 10 or more (MMFAudioClient 4).
func (f *faultModel) injectVolume() {
	a := f.victim()
	f.exec(a, func(k *symbos.Kernel, t *symbos.Thread) {
		symbos.NewAudioClient(k).SetVolume(10 + f.d.rng.Intn(5))
	})
}

// injectMsgsOverflow: the messaging client passes an under-sized reply
// descriptor to the Message Server (MSGS Client 3). It always reboots the
// phone — the Messages application is a core application.
func (f *faultModel) injectMsgsOverflow() {
	a := f.victimNamed(AppMessages)
	f.exec(a, func(k *symbos.Kernel, t *symbos.Thread) {
		tiny := symbos.NewBuf(k, 8)
		a.msgsQueryInto(OpSendMessage, "status-query", tiny)
	})
}

// injectDesOutOfRange / injectDesOverflow: 16-bit descriptor misuse in the
// in-call UI (USER 10 / USER 11) — observed by the paper only during voice
// calls.
func (f *faultModel) injectDesOutOfRange() {
	a := f.victimNamed(AppTelephone)
	f.exec(a, func(k *symbos.Kernel, t *symbos.Thread) {
		number := symbos.NewBuf(k, 32)
		number.Copy("+390811234567")
		number.Mid(10, 8) // reads past the end of the caller-id string
	})
}

func (f *faultModel) injectDesOverflow() {
	a := f.victimNamed(AppTelephone)
	f.exec(a, func(k *symbos.Kernel, t *symbos.Thread) {
		name := symbos.NewBuf(k, 12)
		name.Copy("conference")
		name.Append(" with a very long participant list")
	})
}

// injectViewSrvStarvation: an event handler monopolises the active
// scheduler during a call, so the View Server declares the application
// unresponsive (ViewSrv 11).
func (f *faultModel) injectViewSrvStarvation() {
	a := f.victim()
	f.exec(a, func(k *symbos.Kernel, t *symbos.Thread) {
		ao := t.NewActiveObject("redraw-loop", 1, func(int) {})
		ao.SetCost(45 * time.Second)
		ao.SetActive()
		ao.Complete(symbos.KErrNone)
	})
}

// injectPhoneAppAssert: the undocumented telephony assertion (Phone.app 2),
// observed only while a short message is sent or received. Phone.app is a
// core application: the kernel reboots the phone when it fails.
func (f *faultModel) injectPhoneAppAssert() {
	a := f.victimNamed(AppTelephone)
	f.exec(a, func(k *symbos.Kernel, t *symbos.Thread) {
		k.Raise(symbos.CatPhoneApp, symbos.TypePhoneAppInternal,
			"telephony state assertion failed while delivering SMS PDU")
	})
}
