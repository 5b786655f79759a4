package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"sciview/internal/tuple"
)

// TCP is a Transport over real TCP sockets on the loopback (or any)
// interface. Services listen on ephemeral ports; a shared registry maps
// service names to addresses so Dial needs only the name, mirroring the
// directory role the MetaData Service plays for physical deployments.
//
// Wire format (all integers little-endian):
//
//	request:  u16 methodLen | method | u32 payloadLen | payload
//	response: u8 status (0 ok, 1 remote error, 2 unavailable, 3 timeout) |
//	          u32 len | bytes
//
// Statuses 2 and 3 carry the error taxonomy across the wire: a handler
// failure wrapping ErrUnavailable or ErrTimeout is reconstructed on the
// client with the same sentinel in its chain, so errors.Is classification
// is substrate-independent.
type TCP struct {
	mu    sync.RWMutex
	addrs map[string]string
}

// NewTCP returns a TCP transport with an empty service registry.
func NewTCP() *TCP {
	return &TCP{addrs: make(map[string]string)}
}

// Addr returns the listen address of a registered service, for wiring
// external processes.
func (t *TCP) Addr(service string) (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	a, ok := t.addrs[service]
	return a, ok
}

// RegisterRemote maps a service name to an address served by another
// process (e.g. a standalone node started by cmd/sciview-node).
func (t *TCP) RegisterRemote(service, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addrs[service] = addr
}

// Serve implements Transport: it starts a TCP listener on an ephemeral
// loopback port and serves each connection on its own goroutine.
func (t *TCP) Serve(service string, h Handler) (io.Closer, error) {
	return t.ServeAddr(service, "127.0.0.1:0", h)
}

// tcpServer tracks one service's listener and live connections so Close
// can drain gracefully: stop accepting, let requests already being handled
// finish (their responses are written), then tear the connections down.
type tcpServer struct {
	ln   net.Listener
	h    Handler
	wg   sync.WaitGroup
	mu   sync.Mutex
	done chan struct{}
	open map[net.Conn]struct{}
}

// ServeAddr is Serve with an explicit listen address.
func (t *TCP) ServeAddr(service, addr string, h Handler) (io.Closer, error) {
	t.mu.Lock()
	if _, ok := t.addrs[service]; ok {
		t.mu.Unlock()
		return nil, fmt.Errorf("transport: service %q already registered", service)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.mu.Unlock()
		return nil, fmt.Errorf("transport: listen for %q: %w", service, err)
	}
	t.addrs[service] = ln.Addr().String()
	t.mu.Unlock()

	srv := &tcpServer{
		ln:   ln,
		h:    h,
		done: make(chan struct{}),
		open: make(map[net.Conn]struct{}),
	}
	srv.wg.Add(1)
	go srv.acceptLoop()
	return closerFunc(func() error {
		err := srv.shutdown()
		t.mu.Lock()
		delete(t.addrs, service)
		t.mu.Unlock()
		return err
	}), nil
}

func (s *tcpServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				// Transient accept failure; keep serving.
				continue
			}
		}
		s.mu.Lock()
		select {
		case <-s.done:
			s.mu.Unlock()
			conn.Close()
			return
		default:
		}
		s.open[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

func (s *tcpServer) serveConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.open, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	for {
		method, payload, err := readRequest(conn)
		if err != nil {
			return // client closed, shutdown nudge, or framing error
		}
		resp, herr := s.h(method, payload)
		werr := writeResponse(conn, resp, herr)
		// The exchange is over: recycle the request payload and the
		// handler's response buffer (see Handler's ownership contract).
		// Guard the unlikely case of a handler echoing its input back.
		aliased := len(resp) > 0 && len(payload) > 0 && &resp[0] == &payload[0]
		tuple.PutBuf(payload)
		if !aliased {
			tuple.PutBuf(resp)
		}
		if werr != nil {
			return
		}
		select {
		case <-s.done:
			return // drained: the in-flight request got its response
		default:
		}
	}
}

// shutdown drains the server: stop accepting, unblock connections idle in
// a read (an expired read deadline fails only the pending read — a handler
// mid-request still writes its response), then wait for every connection
// goroutine to finish its current exchange and exit.
func (s *tcpServer) shutdown() error {
	s.mu.Lock()
	select {
	case <-s.done:
		s.mu.Unlock()
		return nil
	default:
	}
	close(s.done)
	err := s.ln.Close()
	for conn := range s.open {
		conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func readRequest(r io.Reader) (string, []byte, error) {
	var mlen uint16
	if err := binary.Read(r, binary.LittleEndian, &mlen); err != nil {
		return "", nil, err
	}
	mbuf := make([]byte, mlen)
	if _, err := io.ReadFull(r, mbuf); err != nil {
		return "", nil, err
	}
	var plen uint32
	if err := binary.Read(r, binary.LittleEndian, &plen); err != nil {
		return "", nil, err
	}
	if plen > 1<<30 {
		return "", nil, fmt.Errorf("transport: oversized payload %d", plen)
	}
	payload := tuple.GetBuf(int(plen))[:plen]
	if _, err := io.ReadFull(r, payload); err != nil {
		tuple.PutBuf(payload)
		return "", nil, err
	}
	countRecv(2 + int(mlen) + 4 + int(plen))
	return string(mbuf), payload, nil
}

func writeRequest(w io.Writer, method string, payload []byte) error {
	buf := tuple.GetBuf(2 + len(method) + 4 + len(payload))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(method)))
	buf = append(buf, method...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	_, err := w.Write(buf)
	if err == nil {
		countSent(len(buf))
	}
	tuple.PutBuf(buf)
	return err
}

// response status codes.
const (
	statusOK          = 0
	statusRemoteError = 1
	statusUnavailable = 2
	statusTimeout     = 3
)

func writeResponse(w io.Writer, resp []byte, herr error) error {
	var buf []byte
	if herr != nil {
		status := byte(statusRemoteError)
		if errors.Is(herr, ErrUnavailable) {
			status = statusUnavailable
		} else if errors.Is(herr, ErrTimeout) {
			status = statusTimeout
		}
		msg := herr.Error()
		buf = tuple.GetBuf(1 + 4 + len(msg))
		buf = append(buf, status)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(msg)))
		buf = append(buf, msg...)
	} else {
		buf = tuple.GetBuf(1 + 4 + len(resp))
		buf = append(buf, statusOK)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(resp)))
		buf = append(buf, resp...)
	}
	_, err := w.Write(buf)
	if err == nil {
		countSent(len(buf))
	}
	tuple.PutBuf(buf)
	return err
}

func readResponse(r io.Reader) ([]byte, byte, error) {
	var status [1]byte
	if _, err := io.ReadFull(r, status[:]); err != nil {
		return nil, 0, err
	}
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, 0, err
	}
	if n > 1<<30 {
		return nil, 0, fmt.Errorf("transport: oversized response %d", n)
	}
	body := tuple.GetBuf(int(n))[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		tuple.PutBuf(body)
		return nil, 0, err
	}
	countRecv(1 + 4 + int(n))
	return body, status[0], nil
}

// Dial implements Transport.
func (t *TCP) Dial(service string) (Conn, error) {
	t.mu.RLock()
	addr, ok := t.addrs[service]
	t.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %w: %q", ErrUnavailable, ErrUnknownService, service)
	}
	return DialAddr(service, addr)
}

// DialAddr connects directly to a service address (bypassing the
// registry), for cross-process clients.
func DialAddr(service, addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %q at %s: %w: %w", service, addr, ErrUnavailable, err)
	}
	return &tcpConn{service: service, addr: addr, conn: c}, nil
}

type tcpConn struct {
	service string
	addr    string
	mu      sync.Mutex // serializes request/response pairs on the socket
	conn    net.Conn   // nil after a mid-exchange abort; redialed lazily
	closed  bool
}

func (c *tcpConn) Call(method string, payload []byte) ([]byte, error) {
	return c.CallContext(context.Background(), method, payload)
}

// CallContext performs one request/response exchange observing ctx. A
// context deadline is armed as a socket deadline before the exchange; a
// cancellation mid-exchange trips the socket immediately via an expired
// deadline. Either way the call returns ctx.Err() instead of hanging.
// Because an aborted exchange leaves the stream mid-frame, the underlying
// socket is then discarded and transparently redialed on the next call.
func (c *tcpConn) CallContext(ctx context.Context, method string, payload []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if c.closed {
		return nil, fmt.Errorf("transport: %s: connection closed", c.service)
	}
	if c.conn == nil { // reconnect after an aborted exchange
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			return nil, fmt.Errorf("transport: redial %q at %s: %w: %w", c.service, c.addr, ErrUnavailable, err)
		}
		c.conn = conn
	}

	if d, ok := ctx.Deadline(); ok {
		c.conn.SetDeadline(d)
	} else {
		c.conn.SetDeadline(time.Time{})
	}
	// A cancellation (as opposed to a deadline) must also unblock socket
	// I/O: watch ctx for the duration of the exchange and trip the socket
	// by expiring its deadline.
	watchStop := make(chan struct{})
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		select {
		case <-ctx.Done():
			c.conn.SetDeadline(time.Now())
		case <-watchStop:
		}
	}()
	finish := func(err error) error {
		close(watchStop)
		<-watchDone
		cerr := ctx.Err()
		if d, ok := ctx.Deadline(); err != nil && cerr == nil && ok && !time.Now().Before(d) {
			// The socket deadline is the context's, and its timer can fail
			// the exchange a moment before the context's own fires.
			cerr = context.DeadlineExceeded
		}
		if cerr != nil {
			// The stream may be mid-frame: poison this socket and let the
			// next call redial.
			c.conn.Close()
			c.conn = nil
			return cerr
		}
		if err != nil {
			// A failed exchange also leaves the stream in an unknown
			// state: discard the socket so the next call starts clean.
			c.conn.Close()
			c.conn = nil
		}
		return err
	}

	if err := writeRequest(c.conn, method, payload); err != nil {
		return nil, c.wireErr("sending", method, finish(err))
	}
	body, status, err := readResponse(c.conn)
	if err != nil {
		return nil, c.wireErr("receiving", method, finish(err))
	}
	if err := finish(nil); err != nil {
		return nil, err
	}
	switch status {
	case statusOK:
		return body, nil
	case statusUnavailable:
		return nil, fmt.Errorf("%w: %s.%s: %s", ErrUnavailable, c.service, method, body)
	case statusTimeout:
		return nil, fmt.Errorf("%w: %s.%s: %s", ErrTimeout, c.service, method, body)
	default:
		return nil, &RemoteError{Service: c.service, Method: method, Msg: string(body)}
	}
}

// wireErr classifies a mid-exchange I/O failure for the error taxonomy:
// context errors pass through untouched, socket timeouts become
// ErrTimeout, and everything else (resets, EOFs from a crashed server)
// becomes ErrUnavailable.
func (c *tcpConn) wireErr(verb, method string, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	sentinel := ErrUnavailable
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		sentinel = ErrTimeout
	}
	return fmt.Errorf("transport: %s %s.%s: %w: %w", verb, c.service, method, sentinel, err)
}

func (c *tcpConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}
