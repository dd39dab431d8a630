package symbos

import "fmt"

// Handler processes one client message inside the server's thread context.
type Handler func(*Message)

// Server is a Symbian system-server application: all system services are
// provided by server processes, and clients reach them through kernel
// message passing (section 2). A server created with system=true is a
// critical server — the paper observes that panics in such servers reboot
// the phone.
type Server struct {
	name    string
	proc    *Process
	handler Handler
	served  uint64

	// Synchronous requests are the hottest IPC path in the simulator, so
	// the server interns its Exec labels and serve closure once, on the
	// first Connect; a server nobody connects to never builds them. cur
	// points serveFn at the request being dispatched; dispatch saves and
	// restores it, so a handler that calls back into its own server sees
	// its own message again afterwards.
	serveLabel string
	ipcLabel   string
	serveFn    func()
	cur        *Message
}

// NewServer starts a server process with the given message handler.
func NewServer(k *Kernel, name string, system bool, handler Handler) *Server {
	proc := k.StartProcess(name, system)
	return &Server{name: name, proc: proc, handler: handler}
}

// AdoptServer wraps an existing process as a server (used when an
// application exposes a service from its own process).
func AdoptServer(proc *Process, handler Handler) *Server {
	return &Server{name: proc.name, proc: proc, handler: handler}
}

// Name returns the server name.
func (s *Server) Name() string { return s.name }

// Process returns the server's process.
func (s *Server) Process() *Process { return s.proc }

// Served returns the number of messages processed.
func (s *Server) Served() uint64 { return s.served }

// Message is one client/server request (RMessage). Complete answers it; a
// null RMessagePtr raises USER 70, as does answering twice.
//
// Payload names the request's target (a file name, a phone number); Data
// carries its bulk bytes (file contents) and is borrowed from the client
// for the duration of the call, so a server copies whatever it keeps.
// Response is the reply descriptor. The server owns its bytes, usually a
// scratch buffer it reuses, so a reply is valid only until the next
// request to the same server; a client that keeps one copies it.
type Message struct {
	Op       int
	Payload  string
	Data     []byte
	Client   string
	Response []byte // set by Respond before Complete

	server    *Server
	kernel    *Kernel
	replied   bool
	nullPtr   bool
	replyCode int           // completion code, read back by the sender
	replyAO   *ActiveObject // async requests complete this on reply
}

// NullifyPtr corrupts the message's RMessagePtr (a modelled defect): the
// next Complete raises USER 70.
func (m *Message) NullifyPtr() { m.nullPtr = true }

// Respond sets the reply written back into the client's descriptor when
// the request completes. b stays owned by the server (see Message).
func (m *Message) Respond(b []byte) { m.Response = b }

// Complete answers the request with the given code.
func (m *Message) Complete(code int) {
	if m.nullPtr {
		m.kernel.Raise(CatUser, TypeNullMessageHandle,
			"completing a client/server request through a null RMessagePtr")
	}
	if m.replied {
		m.kernel.Raise(CatUser, TypeNullMessageHandle,
			fmt.Sprintf("message op %d completed twice", m.Op))
	}
	m.replied = true
	m.server.served++
	m.replyCode = code
	if m.replyAO != nil {
		m.replyAO.Complete(code)
	}
}

// Session is a client connection to a server, held in the client process's
// object index like any other kernel object. The index entry is the
// session's own obj, so a connection allocates no separate KObject.
type Session struct {
	server *Server
	client *Thread
	handle Handle
	open   bool
	obj    KObject
}

// Connect opens a session from the client thread to the server
// (RSessionBase::CreateSession).
func (s *Server) Connect(client *Thread) *Session {
	if s.serveFn == nil {
		s.serveLabel = "serve " + s.name
		s.ipcLabel = "ipc " + s.name
		s.serveFn = func() { s.handler(s.cur) }
	}
	sess := &Session{server: s, client: client, open: true}
	sess.handle = client.proc.openObject(&sess.obj, "session", s.name)
	return sess
}

// acquire readies a Message for one synchronous request: the kernel's
// scratch when free, a fresh allocation when a handler issues a nested
// request (to any server) before its own request has returned. Every
// handler in the tree replies before returning (Exec recovers server
// panics), so the scratch never outlives a call.
func (k *Kernel) acquire(sess *Session, op int, payload string, data []byte) *Message {
	m := &k.ipcScratch
	if k.ipcBusy {
		m = &Message{}
	} else {
		k.ipcBusy = true
	}
	// Field by field: every field a previous request may have set is
	// reset, without copying a whole Message literal per call.
	m.Op, m.Payload, m.Data, m.Response = op, payload, data, nil
	m.Client = sess.client.proc.name
	m.server, m.kernel = sess.server, k
	m.replied, m.nullPtr, m.replyAO = false, false, nil
	m.replyCode = KErrDisconnected // a panicking server never replies
	return m
}

func (k *Kernel) release(m *Message) {
	if m == &k.ipcScratch {
		m.Data, m.Response = nil, nil // neither buffer belongs to the kernel
		k.ipcBusy = false
	}
}

// dispatch runs the server handler on m in the server's thread context.
func (s *Server) dispatch(k *Kernel, m *Message) {
	prev := s.cur
	s.cur = m
	k.Exec(s.proc.main, s.serveLabel, s.serveFn)
	s.cur = prev
}

// Handle returns the session's raw handle in the client's object index.
func (sess *Session) Handle() Handle { return sess.handle }

// Connected reports whether the session is usable.
func (sess *Session) Connected() bool {
	return sess.open && sess.server.proc.alive
}

// SendReceive issues a synchronous request (RSessionBase::SendReceive)
// carrying payload and the borrowed bytes data (nil for none). The handler
// runs in the server's thread context; if the server panics before
// replying, the client sees KErrDisconnected — this is how a panic in one
// process propagates an error (not a panic) into another.
func (sess *Session) SendReceive(op int, payload string, data []byte) int {
	_, code := sess.call("SendReceive", op, payload, data)
	return code
}

// Query is SendReceive for requests that carry a reply: it returns the
// server's Response alongside the completion code. The reply belongs to
// the server and is valid only until the next request to it.
func (sess *Session) Query(op int, payload string) ([]byte, int) {
	return sess.call("Query", op, payload, nil)
}

// call is the one synchronous send path behind SendReceive and Query.
func (sess *Session) call(verb string, op int, payload string, data []byte) ([]byte, int) {
	k := sess.server.proc.kernel
	if !sess.open {
		k.Raise(CatKernExec, TypeBadHandle,
			fmt.Sprintf("%s on closed session to %q", verb, sess.server.name))
	}
	if !sess.server.proc.alive {
		return nil, KErrDisconnected
	}
	m := k.acquire(sess, op, payload, data)
	sess.server.dispatch(k, m)
	resp, code := m.Response, m.replyCode
	k.release(m)
	return resp, code
}

// SendAsync issues an asynchronous request whose reply completes ao. The
// server handler runs on the next engine tick, modelling the kernel's
// message queueing.
func (sess *Session) SendAsync(op int, payload string, ao *ActiveObject) {
	k := sess.server.proc.kernel
	if !sess.open {
		k.Raise(CatKernExec, TypeBadHandle,
			fmt.Sprintf("SendAsync on closed session to %q", sess.server.name))
	}
	ao.SetActive()
	// Async requests outlive this call, so the message cannot come from
	// the kernel scratch.
	m := &Message{
		Op:      op,
		Payload: payload,
		Client:  sess.client.proc.name,
		server:  sess.server,
		kernel:  k,
		replyAO: ao,
	}
	k.eng.After(0, sess.server.ipcLabel, func() {
		if !sess.server.proc.alive {
			ao.Complete(KErrDisconnected)
			return
		}
		sess.server.dispatch(k, m)
		if !m.replied {
			// The server panicked mid-request; fail the client request.
			ao.Complete(KErrDisconnected)
		}
	})
}

// Close releases the session (RHandleBase::Close), going through the
// Kernel Server handle path so a corrupted handle raises KERN-SVR 0.
func (sess *Session) Close() {
	if !sess.open {
		return
	}
	sess.open = false
	sess.client.proc.CloseHandle(sess.handle)
}

// CorruptSessionHandle replaces the session's handle with one that does not
// resolve (a modelled defect): the next Close raises KERN-SVR 0.
func (sess *Session) CorruptSessionHandle() {
	sess.handle = sess.client.proc.CorruptHandle()
}
