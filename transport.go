package cobcast

import (
	"cobcast/internal/obsv"
	"cobcast/internal/udpnet"
)

// MaxDatagram is the largest datagram the UDP transport accepts. A
// datagram carries one batch frame whose size grows with the number of
// batched PDUs and O(n) per PDU via the ACK vector, so payloads must
// stay comfortably below this bound. The node's frames seal a frame
// before it would cross MaxDatagram.
const MaxDatagram = udpnet.MaxDatagram

// ErrDatagramTooLarge is returned by UDPTransport.Broadcast for
// datagrams over MaxDatagram; rejections are counted in
// TransportStats.Oversize.
var ErrDatagramTooLarge = udpnet.ErrDatagramTooLarge

// TransportStats counts transport-level events on a UDPTransport.
type TransportStats struct {
	// Sent and Received count datagrams (batch frames, not PDUs).
	Sent     uint64
	Received uint64
	// Overrun counts datagrams dropped at a full inbox — the paper's
	// receive-buffer-overrun loss, repaired by selective retransmission.
	Overrun uint64
	// ReadErrors counts failed socket reads.
	ReadErrors uint64
	// Oversize counts datagrams rejected for exceeding MaxDatagram.
	Oversize uint64
	// SendErrors counts per-peer send failures (previously silent);
	// each is a dropped datagram the protocol repairs like loss.
	SendErrors uint64
	// SendmmsgCalls and RecvmmsgCalls count batched syscalls on the
	// sendmmsg/recvmmsg wire path; both stay zero on the portable
	// per-datagram path.
	SendmmsgCalls uint64
	RecvmmsgCalls uint64
}

// TransportOption configures a UDPTransport at creation.
type TransportOption = udpnet.Option

// WithBatchSyscalls forces the batched-syscall wire path on or off,
// overriding the COBCAST_BATCH_SYSCALLS environment variable and the
// platform default (on where sendmmsg/recvmmsg exist, currently Linux).
// Forcing it on where unsupported fails NewUDPTransport; if the running
// kernel later rejects the syscalls, the transport falls back to the
// per-datagram path at runtime without losing data.
func WithBatchSyscalls(on bool) TransportOption { return udpnet.WithBatchSyscalls(on) }

// WithSocketBuffers requests SO_RCVBUF/SO_SNDBUF of the given size
// (default 4 MiB; <= 0 keeps the OS defaults). The kernel may clamp the
// request; the effective sizes appear in /statez and SocketBuffers.
// Larger receive buffers absorb bursts the inbox would otherwise see as
// Overrun — but kernel-level drops from an undersized SO_RCVBUF are
// invisible to any counter, so size this above the expected burst.
func WithSocketBuffers(bytes int) TransportOption { return udpnet.WithSocketBuffers(bytes) }

// UDPTransport is a Transport over UDP, substituting for the paper's
// Ethernet testbed: datagrams may be lost, duplicated or reordered across
// senders, while each sender→receiver path stays ordered on LAN and
// loopback in practice (the MC service contract).
type UDPTransport struct {
	t *udpnet.Transport
}

var _ BatchTransport = (*UDPTransport)(nil)

// NewUDPTransport binds a UDP socket on local (for example
// "127.0.0.1:9001", or ":0" for an ephemeral port) that broadcasts to the
// given peer addresses; pass it to NewNode. inboxCap bounds the receive
// queue (0 means 1024). Options select the wire path and socket buffer
// sizes; by default the batched sendmmsg/recvmmsg path is used where the
// platform supports it.
func NewUDPTransport(local string, peers []string, inboxCap int, opts ...TransportOption) (*UDPTransport, error) {
	t, err := udpnet.New(local, peers, inboxCap, opts...)
	if err != nil {
		return nil, err
	}
	return &UDPTransport{t: t}, nil
}

// LocalAddr returns the bound socket address (useful with port ":0").
func (u *UDPTransport) LocalAddr() string { return u.t.LocalAddr() }

// BatchSyscalls reports whether the transport is using the batched
// sendmmsg/recvmmsg wire path.
func (u *UDPTransport) BatchSyscalls() bool { return u.t.BatchSyscalls() }

// SocketBuffers returns the effective SO_RCVBUF/SO_SNDBUF sizes as the
// kernel reports them (0 when left at OS defaults off Linux).
func (u *UDPTransport) SocketBuffers() (read, write int) { return u.t.SocketBuffers() }

// Stats returns a snapshot of the transport counters.
func (u *UDPTransport) Stats() TransportStats {
	s := u.t.Stats()
	return TransportStats{
		Sent:          s.Sent,
		Received:      s.Received,
		Overrun:       s.Overrun,
		ReadErrors:    s.ReadErrors,
		Oversize:      s.Oversize,
		SendErrors:    s.SendErrors,
		SendmmsgCalls: s.SendmmsgCalls,
		RecvmmsgCalls: s.RecvmmsgCalls,
	}
}

// TransportState describes the transport's wire-path configuration;
// NewNode attaches it to a WithObservability registry for /statez.
func (u *UDPTransport) TransportState() obsv.TransportState { return u.t.State() }

// Metrics exposes the transport's live counters; NewNode uses it to
// register the transport with a WithObservability registry.
func (u *UDPTransport) Metrics() *obsv.TransportMetrics { return u.t.Metrics() }

// Broadcast implements Transport. The datagram (one batch frame) is
// handed to the kernel before returning, so the caller may reuse the
// buffer immediately; oversize datagrams fail with ErrDatagramTooLarge.
func (u *UDPTransport) Broadcast(datagram []byte) error { return u.t.Broadcast(datagram) }

// BroadcastBatch implements BatchTransport: it sends every datagram to
// every peer, in slice order, using one sendmmsg per peer-sweep on the
// batched wire path (a single syscall for the whole batch) and a
// Broadcast loop otherwise. Buffers may be reused once it returns.
func (u *UDPTransport) BroadcastBatch(datagrams [][]byte) error { return u.t.BroadcastBatch(datagrams) }

// Recv implements Transport. Delivered slices are whole datagrams (batch
// frames) backed by the pdu datagram pool; the node's frames decode
// each one and recycle the buffer via pdu.PutDatagram.
func (u *UDPTransport) Recv() <-chan []byte { return u.t.Recv() }

// Close implements Transport.
func (u *UDPTransport) Close() error { return u.t.Close() }
