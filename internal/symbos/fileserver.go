package symbos

import "strconv"

// The file server (F32). On Symbian every file operation is a
// client/server request to the file server process; the paper's logger
// persists its heartbeat and Log File through it. Modelling it as a real
// server matters for fidelity: file I/O exercises the IPC machinery, and a
// file-server panic is a critical-server failure (the phone reboots).

// File server operation codes.
const (
	FsOpWrite = iota + 100
	FsOpAppend
	FsOpRead
	FsOpDelete
	FsOpExists
	FsOpSize
)

// Store is the backing medium the file server manages (the phone package's
// flash filesystem implements it). Write and Append report false when the
// medium rejects the operation — a full flash — which the file server
// surfaces as KErrDiskFull. Write and Append borrow data only for the call
// and copy what they keep; Read returns a copy the caller owns; Size is 0
// for a missing path.
type Store interface {
	Write(path string, data []byte) bool
	Append(path string, data []byte) bool
	Read(path string) ([]byte, bool)
	Size(path string) int
	Delete(path string)
	Exists(path string) bool
}

// FileServer is the F32 file server process.
type FileServer struct {
	srv     *Server
	store   Store
	scratch []byte // FsOpSize replies; valid until the next request
}

// NewFileServer starts the file server as a critical system server over the
// given store.
func NewFileServer(k *Kernel, store Store) *FileServer {
	f := &FileServer{store: store}
	f.srv = NewServer(k, "F32Srv", true, f.handle)
	return f
}

// Server returns the underlying server (for process-level access).
func (f *FileServer) Server() *Server { return f.srv }

// handle serves one file request. Payload is the path; writes and appends
// carry the file bytes in Data, which the store copies, so the client's
// buffer never crosses the call. Read replies are the store's own copy;
// the size reply is formatted into the server's scratch.
func (f *FileServer) handle(m *Message) {
	switch m.Op {
	case FsOpWrite, FsOpAppend:
		if m.Payload == "" {
			m.Complete(KErrArgument)
			return
		}
		var stored bool
		if m.Op == FsOpWrite {
			stored = f.store.Write(m.Payload, m.Data)
		} else {
			stored = f.store.Append(m.Payload, m.Data)
		}
		if !stored {
			m.Complete(KErrDiskFull)
			return
		}
		m.Complete(KErrNone)
	case FsOpRead:
		data, ok := f.store.Read(m.Payload)
		if !ok {
			m.Complete(KErrNotFound)
			return
		}
		m.Respond(data)
		m.Complete(KErrNone)
	case FsOpDelete:
		f.store.Delete(m.Payload)
		m.Complete(KErrNone)
	case FsOpExists:
		if f.store.Exists(m.Payload) {
			m.Complete(KErrNone)
		} else {
			m.Complete(KErrNotFound)
		}
	case FsOpSize:
		if !f.store.Exists(m.Payload) {
			m.Complete(KErrNotFound)
			return
		}
		f.scratch = strconv.AppendInt(f.scratch[:0], int64(f.store.Size(m.Payload)), 10)
		m.Respond(f.scratch)
		m.Complete(KErrNone)
	default:
		m.Complete(KErrNotSupported)
	}
}

// FileSession is a client connection to the file server (RFs).
type FileSession struct {
	sess *Session
}

// Connect opens a file-server session from the client thread
// (RFs::Connect).
func (f *FileServer) Connect(t *Thread) *FileSession {
	return &FileSession{sess: f.srv.Connect(t)}
}

// WriteFile replaces path's contents. data is only borrowed: the caller
// may reuse it as soon as the call returns.
func (s *FileSession) WriteFile(path string, data []byte) int {
	return s.sess.SendReceive(FsOpWrite, path, data)
}

// AppendFile adds data to the end of path, borrowing data like WriteFile.
func (s *FileSession) AppendFile(path string, data []byte) int {
	return s.sess.SendReceive(FsOpAppend, path, data)
}

// ReadFile returns path's contents (KErrNotFound when absent). The slice is
// the store's copy and belongs to the caller.
func (s *FileSession) ReadFile(path string) ([]byte, int) {
	data, code := s.sess.Query(FsOpRead, path)
	if code != KErrNone {
		return nil, code
	}
	return data, KErrNone
}

// SizeFile returns path's length in bytes without transferring its
// contents (KErrNotFound when absent). Size-gated appenders — the
// heartbeat and Log File writers check a rotation budget on every
// append — must use this instead of ReadFile, which copies the file.
func (s *FileSession) SizeFile(path string) (int, int) {
	resp, code := s.sess.Query(FsOpSize, path)
	if code != KErrNone {
		return 0, code
	}
	n, err := strconv.Atoi(string(resp))
	if err != nil {
		return 0, KErrArgument
	}
	return n, KErrNone
}

// DeleteFile removes path.
func (s *FileSession) DeleteFile(path string) int {
	return s.sess.SendReceive(FsOpDelete, path, nil)
}

// FileExists reports whether path is present.
func (s *FileSession) FileExists(path string) bool {
	return s.sess.SendReceive(FsOpExists, path, nil) == KErrNone
}

// Close releases the session.
func (s *FileSession) Close() { s.sess.Close() }
