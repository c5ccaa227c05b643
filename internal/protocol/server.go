package protocol

import (
	"errors"
	"log"
	"net"
	"sync"
	"time"
)

// Handler answers one request frame on rc, whose replies already carry
// the request's ID. A returned error is sent to the peer as a TypeError
// frame; ErrConnDone ends the connection instead. A handler may instead
// hand the reply to another goroutine (ReplyConn.Defer) and return nil.
type Handler func(rc *ReplyConn, f Frame) error

// ErrConnDone is returned by a Handler that took over the rest of its
// connection (AppSpector's watch stream) and is finished with it: the
// server closes the connection and writes no error frame.
var ErrConnDone = errors.New("protocol: handler is done with the connection")

// Server is the listening half every Faucets component shares (paper
// Fig 1: FS, FD and AS each listen on a well-known port): the accept
// loop, the set of live connections that Close severs, and the
// per-connection read → handle → reply loop. A component supplies its
// dispatch switch as the Handler and keeps its own state, pollers and
// timers.
type Server struct {
	name   string
	handle Handler
	obs    Observer

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closing  bool
	closed   chan struct{} // closed with closing set: wakes an accept backoff
	wg       sync.WaitGroup
}

// NewServer returns a server that answers requests with h. name
// prefixes its log lines. obs, if not nil, is told each request's type,
// handling time and error; with nil the request path reads no clock.
func NewServer(name string, h Handler, obs Observer) *Server {
	return &Server{
		name:   name,
		handle: h,
		obs:    obs,
		conns:  map[net.Conn]struct{}{},
		closed: make(chan struct{}),
	}
}

// Serve accepts connections on l until Close or until l is closed.
// Transient accept failures (EMFILE under descriptor pressure, say) are
// retried with a backoff doubling from 5 ms to 1 s instead of ending
// the loop while the process lives on.
func (s *Server) Serve(l net.Listener) {
	s.mu.Lock()
	s.listener = l
	closing := s.closing
	s.mu.Unlock()
	if closing {
		// Close ran before it could see this listener. Close it here and
		// carry on: Accept then fails with net.ErrClosed, and a
		// connection it still hands out is refused by Track below.
		l.Close()
	}
	var backoff time.Duration
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			log.Printf("%s: accept: %v (retrying in %v)", s.name, err, backoff)
			// A timer that is stopped, not time.After: a shutdown
			// mid-backoff must not leave it behind until it fires.
			wait := time.NewTimer(backoff)
			select {
			case <-s.closed:
				wait.Stop()
				return
			case <-wait.C:
			}
			continue
		}
		backoff = 0
		if !s.Track(conn) {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.Untrack(conn)
			defer conn.Close()
			s.serveConn(conn)
		}()
	}
}

// Track registers a live connection for Close to sever, and reports
// false once Close has begun: a connection added while Close was
// severing the others would never be severed itself, and whoever reads
// or writes it would hold its owner's shutdown for as long as the peer
// kept it busy. Besides accepted connections, a component tracks an
// outbound connection whose blocked write only Close can end (the
// daemon's monitor stream).
func (s *Server) Track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

// Untrack forgets a connection its owner has closed.
func (s *Server) Untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// Close stops accepting, severs every tracked connection and waits for
// the connection handlers and their deferred replies. A Serve that has
// not stored its listener yet closes it itself when it does. Safe to call
// more than once.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closing {
		s.closing = true
		close(s.closed)
	}
	l := s.listener
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	s.wg.Wait()
}

// serveConn reads frames off one connection until it ends, handing each
// to the Handler. Replies echo the request's frame ID, so pooled callers
// can pipeline requests over the connection. The FrameReader reuses one
// payload buffer, which is safe because the Handler is done with each
// frame before the next is read (a deferred reply keeps copies). The
// observer sees a deferred request up to its hand-off, without its error.
func (s *Server) serveConn(conn net.Conn) {
	rc := NewReplyConn(conn)
	rc.deferred = &s.wg
	fr := NewFrameReader(conn)
	for {
		f, err := fr.Next()
		if err != nil {
			return // EOF, a severed connection or a corrupt frame
		}
		rc.SetID(f.ID)
		if s.obs == nil {
			err = s.handle(rc, f)
		} else {
			start := time.Now()
			err = s.handle(rc, f)
			s.obs.ObserveRPC(f.Type, time.Since(start), err)
		}
		if errors.Is(err, ErrConnDone) {
			return
		}
		if err != nil {
			_ = WriteErrorFrom(rc, err)
		}
	}
}
