package controlplane

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// Conn is a reliable, ordered, message-oriented duplex channel between the
// global manager and one elastic instance (rank 0). The paper runs this
// over Ray RPC; in-process deployments use Inline, while multi-process
// deployments use the TCP framing below.
type Conn interface {
	// Send transmits one encoded message.
	Send(msg Message) error
	// Recv returns the next message, waiting for it where the transport
	// can (Inline's Recv never waits). After Close it returns io.EOF once
	// nothing is queued.
	Recv() (Message, error)
	// Close releases the channel; pending Recvs unblock with io.EOF.
	Close() error
}

// maxFrame bounds a single message on the TCP transport. Even a 1M-token
// retention plan encodes in well under 8 MiB.
const maxFrame = 16 << 20

// --- in-line --------------------------------------------------------------

// inlineConn is the manager's end of a connection whose instance server
// runs on the sender's stack.
type inlineConn struct {
	srv *InstanceServer

	// mu serializes Sends, so the server answers one message at a time as
	// its Serve loop would. It also guards the fields below, because
	// Manager.Close closes every conn without the instances' locks.
	mu     sync.Mutex
	closed bool
	buf    []byte    // encode buffer, reused: Decode copies out of it
	queue  []Message // replies not yet Recv'd
}

// Inline returns a Conn to srv that needs no goroutine. Send encodes the
// message through the wire codec and decodes it again, calls srv.Handle on
// the caller's stack, round-trips the reply through the codec too, and
// queues it for Recv, so in-process runs carry exactly the bytes the TCP
// transport would. Recv never blocks: with no reply pending it returns an
// error, because nothing can arrive later.
func Inline(srv *InstanceServer) Conn {
	return &inlineConn{srv: srv}
}

func (c *inlineConn) Send(msg Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("controlplane: send on closed inline conn to instance %d", c.srv.ID)
	}
	in, err := c.wire(msg)
	if err != nil {
		return err
	}
	reply, err := c.srv.Handle(in)
	if err != nil {
		return err
	}
	if reply, err = c.wire(reply); err != nil {
		return err
	}
	c.queue = append(c.queue, reply)
	return nil
}

// wire round-trips msg through the codec.
func (c *inlineConn) wire(msg Message) (Message, error) {
	buf, err := Encode(c.buf[:0], msg)
	if err != nil {
		return nil, err
	}
	c.buf = buf
	return Decode(buf)
}

func (c *inlineConn) Recv() (Message, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.queue) == 0 {
		if c.closed {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("controlplane: recv on inline conn to instance %d with no reply pending", c.srv.ID)
	}
	msg := c.queue[0]
	n := copy(c.queue, c.queue[1:])
	c.queue[n] = nil
	c.queue = c.queue[:n]
	return msg, nil
}

func (c *inlineConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return nil
}

// --- framed TCP ------------------------------------------------------------

type netConn struct {
	c  net.Conn
	br *bufio.Reader

	wmu sync.Mutex
	buf []byte
}

// NewNetConn wraps a stream connection with uvarint length framing. It
// works over any net.Conn (TCP, Unix sockets).
func NewNetConn(c net.Conn) Conn {
	return &netConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}
}

// Dial connects to a listening instance endpoint.
func Dial(network, addr string) (Conn, error) {
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return NewNetConn(c), nil
}

func (c *netConn) Send(msg Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	// Reserve frame header space, encode in place, then patch the header.
	body, err := Encode(c.buf[:0], msg)
	if err != nil {
		return err
	}
	c.buf = body // keep capacity for reuse
	var hdr [binary.MaxVarintLen32]byte
	n := binary.PutUvarint(hdr[:], uint64(len(body)))
	if _, err := c.c.Write(hdr[:n]); err != nil {
		return err
	}
	_, err = c.c.Write(body)
	return err
}

func (c *netConn) Recv() (Message, error) {
	size, err := binary.ReadUvarint(c.br)
	if err != nil {
		return nil, err
	}
	if size > maxFrame {
		return nil, fmt.Errorf("controlplane: frame of %d bytes exceeds limit %d", size, maxFrame)
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(c.br, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return Decode(buf)
}

func (c *netConn) Close() error { return c.c.Close() }

// Listener accepts instance connections for a serving deployment.
type Listener struct {
	l net.Listener
}

// Listen opens a control-plane listener.
func Listen(network, addr string) (*Listener, error) {
	l, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	return &Listener{l: l}, nil
}

// Addr returns the bound address (useful with ":0").
func (l *Listener) Addr() net.Addr { return l.l.Addr() }

// Accept waits for the next connection.
func (l *Listener) Accept() (Conn, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	return NewNetConn(c), nil
}

// Close stops accepting.
func (l *Listener) Close() error { return l.l.Close() }
