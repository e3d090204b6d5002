package gramine

import (
	"context"
	"errors"
	"sync"

	"shield5g/internal/hmee/sgx"
	"shield5g/internal/simclock"
)

// ErrSessionClosed reports a request on a closed keep-alive session, under
// every runtime.
var ErrSessionClosed = errors.New("gramine: session closed")

// Exec is the execution surface a call charges its work through. Inside
// an enclave it is the *sgx.Thread (memory-encryption overhead, AEX
// draws, EPC faults); in a plain container or a confidential VM it
// charges that runtime's costs.
type Exec interface {
	// Compute charges n cycles of handler execution.
	Compute(n simclock.Cycles)
	// Touch charges access to n bytes of heap.
	Touch(nBytes uint64)
	// StoreSecret places sensitive material in the runtime's memory.
	StoreSecret(name string, data []byte)
	// LoadSecret reads sensitive material back.
	LoadSecret(name string) ([]byte, bool)
}

// The enclave thread is an Exec.
var _ Exec = (*sgx.Thread)(nil)

// Call is one typed unit of work run across the isolation boundary: a
// served request's handler or a maintenance body. Hot-path callers pass a
// pooled pointer, so handing it through every layer allocates nothing.
type Call interface {
	Run(ex Exec) error
}

// Phases selects the parts of a server's request body one call runs. A
// one-shot request is a session of one: Pre, the request and Post (plus
// the warm-up and handshake on the server's first contact). A session
// pays Pre and the handshake at open, only the request per pipelined
// call, and Post at close.
type Phases uint8

// Request-body phases, in charge order. Only the handshake moves: a
// one-shot request pays it straight after the warm-up, a session open
// after its Pre.
const (
	// PhaseWarmup is the server's first contact: lazy loading of its
	// dependencies.
	PhaseWarmup Phases = 1 << iota
	// PhaseHandshake is the server-side TLS handshake of a connection.
	PhaseHandshake
	// PhasePre is the pre-request accept machinery.
	PhasePre
	// PhaseRequest is the readiness wake-ups (0–2 jitter-drawn extra
	// syscalls), the request census and the handler.
	PhaseRequest
	// PhasePost is the post-request teardown machinery.
	PhasePost
)

// HandshakeFirst reports whether the handshake precedes the Pre machinery:
// true for a one-shot request, false for a session open.
func (ph Phases) HandshakeFirst() bool { return ph&PhaseRequest != 0 }

// ServeFunc is a runtime's one request body: it charges the phases ph of
// one request (or connection event) to ctx's account, running call inside
// PhaseRequest. s is the session the call rides, nil for a one-shot
// request.
type ServeFunc func(ctx context.Context, s *Session, ph Phases, inBytes, outBytes int, call Call) (Breakdown, error)

// Server is the request-path bookkeeping every runtime shares around its
// own request body: liveness, the one-time warm-up claim and keep-alive
// sessions. Runtimes embed it, so OpenSession, Serve and Session.Close
// are the same entries under SGX, a plain container and a confidential
// VM.
type Server struct {
	body    ServeFunc
	stopped error

	mu      sync.Mutex
	running bool
	warm    bool
}

// NewServer returns a running server around body; stopped is the error
// its entries return once StopServing was called.
func NewServer(body ServeFunc, stopped error) *Server {
	return &Server{body: body, stopped: stopped, running: true}
}

// admit checks the server is running. When claimWarm is set it also
// claims the warm-up: first is true for exactly one caller over the
// server's life.
func (srv *Server) admit(claimWarm bool) (first bool, err error) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if !srv.running {
		return false, srv.stopped
	}
	if claimWarm {
		first = !srv.warm
		srv.warm = true
	}
	return first, nil
}

// Live returns the server's stopped error once it was stopped, else nil.
func (srv *Server) Live() error {
	_, err := srv.admit(false)
	return err
}

// StopServing marks the server stopped and reports whether it was
// running. Runtimes call it from their own teardown.
func (srv *Server) StopServing() bool {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	was := srv.running
	srv.running = false
	return was
}

// Warm reports whether the server has had its first contact.
func (srv *Server) Warm() bool {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.warm
}

// Session is one persistent keep-alive connection into a server. The
// connection-scoped machinery — the accept Pre census and the server-side
// TLS handshake — is paid once at OpenSession and the Post teardown once
// at Close, so pipelined requests served on it pay only the per-request
// census. A batch of B requests thus spreads the Pre+Post machinery (81
// proxied syscalls under the default profile) over B requests.
type Session struct {
	srv *Server
	// switchless is the connection's opt-in to a switchless ring, fixed
	// at open: one connection's census never mixes boundary disciplines.
	switchless bool

	mu   sync.Mutex
	open bool
}

// OpenSession accepts one persistent client connection, charging the
// accept machinery and the server-side TLS handshake to ctx's account
// once for the whole session (plus the warm-up on the server's first
// contact).
func (srv *Server) OpenSession(ctx context.Context) (*Session, error) {
	first, err := srv.admit(true)
	if err != nil {
		return nil, err
	}
	ph := PhasePre | PhaseHandshake
	if first {
		ph |= PhaseWarmup
	}
	s := &Session{srv: srv, switchless: sgx.SwitchlessFrom(ctx), open: true}
	if _, err := srv.body(ctx, s, ph, 0, 0, nil); err != nil {
		return nil, err
	}
	return s, nil
}

// Serve runs one request through the server's body. With s nil the
// request is one-shot: a session of one that also pays the Pre and Post
// machinery (and, on the server's first contact, the warm-up and the TLS
// handshake). On an open session only the request itself is paid: its
// L_F and L_T windows are bit-identical to a warm one-shot's under the
// same jitter stream, and ServerSide omits exactly the amortized Pre/Post
// machinery.
//
// Costs are charged to the account carried by ctx, which must be dedicated
// to this request for the returned Breakdown windows to be meaningful.
func (srv *Server) Serve(ctx context.Context, s *Session, inBytes, outBytes int, call Call) (Breakdown, error) {
	if s == nil {
		first, err := srv.admit(true)
		if err != nil {
			return Breakdown{}, err
		}
		ph := PhasePre | PhaseRequest | PhasePost
		if first {
			ph |= PhaseWarmup | PhaseHandshake
		}
		return srv.body(ctx, nil, ph, inBytes, outBytes, call)
	}
	if err := srv.Live(); err != nil {
		return Breakdown{}, err
	}
	if s.srv != srv {
		return Breakdown{}, errors.New("gramine: session belongs to a different server")
	}
	s.mu.Lock()
	open := s.open
	s.mu.Unlock()
	if !open {
		return Breakdown{}, ErrSessionClosed
	}
	return srv.body(ctx, s, PhaseRequest, inBytes, outBytes, call)
}

// Close tears the session's connection down, paying the post-request
// machinery once for the whole pipelined batch. Closing twice, or closing
// after the server stopped (the connection died with it), is a free
// no-op.
func (s *Session) Close(ctx context.Context) error {
	s.mu.Lock()
	open := s.open
	s.open = false
	s.mu.Unlock()
	if !open || s.srv.Live() != nil {
		return nil
	}
	// A ring that closed under us means the enclave is going down with
	// the connection — the same free no-op as a stopped server.
	if _, err := s.srv.body(ctx, s, PhasePost, 0, 0, nil); err != nil && !errors.Is(err, sgx.ErrRingClosed) {
		return err
	}
	return nil
}
