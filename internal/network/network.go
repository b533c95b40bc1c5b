// Package network provides the multi-channel (MC) network substrate the CO
// protocol runs on (Section 2.3 of the paper): a fully connected set of
// high-speed channels that
//
//   - preserves per-sender order on every channel (the MC service is
//     local-order-preserved), but
//   - may lose PDUs, primarily through receive-buffer overrun, because the
//     network is faster than the receiving entities, and
//   - imposes an arbitrary interleaving across senders (entities may
//     receive PDUs from different entities in different orders).
//
// The in-memory implementation models buffer overrun faithfully: every
// endpoint has a bounded inbox and a PDU arriving at a full inbox is
// dropped, exactly the loss mode the paper designs for. Additional random
// loss, per-pair latency, drop filters for failure injection, and
// partitions are available through options. All randomness is seeded so
// tests are reproducible.
package network

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
)

// Inbound is a batch of PDUs arriving at an endpoint, tagged with its
// sender. A batch models one datagram: it is transmitted, delayed,
// duplicated, lost, and delivered as a unit, and its PDUs are in the
// sender's append order, so per-sender order holds within and across
// batches (the MC service contract).
type Inbound struct {
	From pdu.EntityID
	// Group tags the datagram's ordered group (0 = the default group) —
	// the in-memory analogue of the v3 frame header's group field.
	Group uint32
	PDUs  []*pdu.PDU
}

// Endpoint is the per-entity attachment point to a network. Broadcast
// delivers to every other endpoint (never back to the sender: the CO
// protocol self-accepts at send time).
type Endpoint interface {
	// Local returns the entity this endpoint belongs to.
	Local() pdu.EntityID
	// Broadcast sends the batch to every other entity in the cluster as
	// one datagram. The batch is cloned at the network boundary; the
	// caller keeps ownership of its PDUs.
	Broadcast(batch ...*pdu.PDU) error
	// Send sends the batch to a single entity (used by tests and tools;
	// the CO protocol itself only broadcasts).
	Send(to pdu.EntityID, batch ...*pdu.PDU) error
	// Recv is the endpoint's inbox. It is closed when the network closes.
	Recv() <-chan Inbound
}

// DelayFn returns the propagation delay from one entity to another.
type DelayFn func(from, to pdu.EntityID) time.Duration

// DropFn lets tests inject targeted loss; returning true for any PDU of
// a batch drops the whole batch (the datagram) on the from→to channel.
type DropFn func(from, to pdu.EntityID, p *pdu.PDU) bool

// Stats counts network-level events since the network was created. All
// counters are in PDUs, not batches, so they are comparable across
// batching configurations.
type Stats struct {
	// Sent counts point-to-point PDU transmissions (a broadcast of a
	// k-PDU batch in a cluster of n counts k×(n-1)).
	Sent uint64
	// Delivered counts PDUs handed to inboxes.
	Delivered uint64
	// DroppedLoss counts PDUs dropped by random loss or drop filters.
	DroppedLoss uint64
	// DroppedOverrun counts PDUs dropped because the receiver inbox was
	// full — the paper's buffer-overrun failure mode.
	DroppedOverrun uint64
	// DroppedPartition counts PDUs dropped on blocked channels.
	DroppedPartition uint64
}

type config struct {
	lossRate      float64
	duplicateRate float64
	seed          int64
	delay         DelayFn
	drop          DropFn
	inboxCap      int
	queueCap      int
}

// Option configures a Net.
type Option func(*config)

// WithLossRate makes every point-to-point transmission independently lost
// with probability p (0 ≤ p < 1).
func WithLossRate(p float64) Option { return func(c *config) { c.lossRate = p } }

// WithDuplicateRate makes every point-to-point transmission delivered
// twice with probability p — UDP-style duplication the protocol must
// absorb.
func WithDuplicateRate(p float64) Option { return func(c *config) { c.duplicateRate = p } }

// WithSeed seeds the loss RNG; networks with equal seeds and traffic lose
// the same PDUs.
func WithSeed(s int64) Option { return func(c *config) { c.seed = s } }

// WithDelay sets the propagation-delay model. The default is zero delay.
func WithDelay(fn DelayFn) Option { return func(c *config) { c.delay = fn } }

// WithUniformDelay sets the same propagation delay on every channel (the
// paper's parameter R is the maximum such delay).
func WithUniformDelay(d time.Duration) Option {
	return WithDelay(func(_, _ pdu.EntityID) time.Duration { return d })
}

// WithDropFilter installs a targeted-loss hook for failure injection.
func WithDropFilter(fn DropFn) Option { return func(c *config) { c.drop = fn } }

// WithInboxCapacity bounds each endpoint's receive buffer; arrivals at a
// full inbox are dropped (buffer overrun). The default is 1024.
func WithInboxCapacity(n int) Option { return func(c *config) { c.inboxCap = n } }

// WithQueueCapacity bounds each directed channel's in-flight queue. The
// default is 4096; overflow counts as loss.
func WithQueueCapacity(n int) Option { return func(c *config) { c.queueCap = n } }

// Net is an in-memory MC network connecting n entities. Create with New,
// attach entities via Endpoint, and Close when done; Close waits for all
// channel goroutines to exit.
type Net struct {
	cfg   config
	ports []*Port

	mu      sync.Mutex
	rng     *rand.Rand
	blocked map[[2]pdu.EntityID]bool
	closed  bool

	stop chan struct{}
	wg   sync.WaitGroup

	// m holds the network counters on the shared obsv atomic type.
	// transmit (sender goroutines) and runPipe (per-channel goroutines)
	// increment concurrently; Stats and registry scrapers load from any
	// goroutine.
	m obsv.NetworkMetrics
}

// ErrClosed is returned by sends on a closed network.
var ErrClosed = errors.New("network: closed")

// New creates an MC network for n entities.
func New(n int, opts ...Option) *Net {
	cfg := config{
		seed:     1,
		inboxCap: 1024,
		queueCap: 4096,
		delay:    func(_, _ pdu.EntityID) time.Duration { return 0 },
	}
	for _, o := range opts {
		o(&cfg)
	}
	net := &Net{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.seed)),
		blocked: make(map[[2]pdu.EntityID]bool),
		stop:    make(chan struct{}),
	}
	net.ports = make([]*Port, n)
	for i := range net.ports {
		p := &Port{
			net:   net,
			id:    pdu.EntityID(i),
			inbox: make(chan Inbound, cfg.inboxCap),
			pipes: make([]chan Inbound, n),
		}
		net.ports[i] = p
	}
	// One ordered pipe per directed pair keeps the MC service's
	// local-order-preserved guarantee even with nonzero delays.
	for from := range net.ports {
		for to := range net.ports {
			if from == to {
				continue
			}
			pipe := make(chan Inbound, cfg.queueCap)
			net.ports[to].pipes[from] = pipe
			net.wg.Add(1)
			go net.runPipe(pdu.EntityID(from), pdu.EntityID(to), pipe)
		}
	}
	return net
}

// runPipe delivers the from→to channel sequentially, applying the
// propagation delay to the head of the queue so per-sender order is
// preserved.
func (n *Net) runPipe(from, to pdu.EntityID, pipe chan Inbound) {
	defer n.wg.Done()
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-n.stop:
			return
		case in := <-pipe:
			if d := n.cfg.delay(from, to); d > 0 {
				timer.Reset(d)
				select {
				case <-n.stop:
					if !timer.Stop() {
						<-timer.C
					}
					return
				case <-timer.C:
				}
			}
			// Count before the hand-off, so a receiver that reads Stats
			// after taking the datagram sees it counted. On overrun the
			// count moves to DroppedOverrun.
			k := uint64(len(in.PDUs))
			n.m.Delivered.Add(k)
			select {
			case n.ports[to].inbox <- in:
			default:
				// Receive-buffer overrun: the paper's loss model. The
				// whole datagram is lost with its slot.
				n.m.Delivered.Add(-k)
				n.m.DroppedOverrun.Add(k)
			}
		}
	}
}

// Endpoint returns entity i's attachment point.
func (n *Net) Endpoint(i pdu.EntityID) *Port { return n.ports[i] }

// Size returns the number of entities the network connects.
func (n *Net) Size() int { return len(n.ports) }

// Block partitions the directed channel from→to; PDUs sent on it are
// dropped until Unblock.
func (n *Net) Block(from, to pdu.EntityID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[[2]pdu.EntityID{from, to}] = true
}

// Unblock heals the directed channel from→to.
func (n *Net) Unblock(from, to pdu.EntityID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocked, [2]pdu.EntityID{from, to})
}

// Isolate blocks every channel to and from entity i.
func (n *Net) Isolate(i pdu.EntityID) {
	for j := range n.ports {
		if pdu.EntityID(j) == i {
			continue
		}
		n.Block(i, pdu.EntityID(j))
		n.Block(pdu.EntityID(j), i)
	}
}

// Rejoin heals every channel to and from entity i.
func (n *Net) Rejoin(i pdu.EntityID) {
	for j := range n.ports {
		if pdu.EntityID(j) == i {
			continue
		}
		n.Unblock(i, pdu.EntityID(j))
		n.Unblock(pdu.EntityID(j), i)
	}
}

// Stats returns a snapshot of the network counters.
func (n *Net) Stats() Stats {
	return Stats{
		Sent:             n.m.Sent.Load(),
		Delivered:        n.m.Delivered.Load(),
		DroppedLoss:      n.m.DroppedLoss.Load(),
		DroppedOverrun:   n.m.DroppedOverrun.Load(),
		DroppedPartition: n.m.DroppedPartition.Load(),
	}
}

// Metrics returns the live counters for registry registration; the
// returned pointer stays valid for the network's lifetime.
func (n *Net) Metrics() *obsv.NetworkMetrics { return &n.m }

// Close shuts the network down. Inboxes are closed after all channel
// goroutines exit; in-flight PDUs may be discarded.
func (n *Net) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	close(n.stop)
	n.wg.Wait()
	for _, p := range n.ports {
		close(p.inbox)
	}
}

// transmit routes one point-to-point copy of a batch (one datagram)
// tagged with its group, applying partition, loss and drop-filter policy
// to the batch as a unit. It never blocks.
func (n *Net) transmit(from, to pdu.EntityID, group uint32, batch []*pdu.PDU) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if len(batch) == 0 {
		n.mu.Unlock()
		return nil
	}
	blocked := n.blocked[[2]pdu.EntityID{from, to}]
	lost := n.cfg.lossRate > 0 && n.rng.Float64() < n.cfg.lossRate
	duplicated := n.cfg.duplicateRate > 0 && n.rng.Float64() < n.cfg.duplicateRate
	n.mu.Unlock()

	n.m.Sent.Add(uint64(len(batch)))
	if blocked {
		n.m.DroppedPartition.Add(uint64(len(batch)))
		return nil
	}
	if lost {
		n.m.DroppedLoss.Add(uint64(len(batch)))
		return nil
	}
	if n.cfg.drop != nil {
		for _, p := range batch {
			if n.cfg.drop(from, to, p) {
				n.m.DroppedLoss.Add(uint64(len(batch)))
				return nil
			}
		}
	}
	copies := 1
	if duplicated {
		copies = 2
	}
	for c := 0; c < copies; c++ {
		// Clone at the network boundary so entities never share
		// backing arrays; each duplicate is an independent copy.
		pdus := make([]*pdu.PDU, len(batch))
		for i, p := range batch {
			pdus[i] = p.Clone()
		}
		in := Inbound{From: from, Group: group, PDUs: pdus}
		select {
		case n.ports[to].pipes[from] <- in:
		default:
			n.m.DroppedOverrun.Add(uint64(len(in.PDUs)))
		}
	}
	return nil
}

// Port is an entity's endpoint on a Net.
type Port struct {
	net   *Net
	id    pdu.EntityID
	inbox chan Inbound
	pipes []chan Inbound // indexed by sender; pipes[id] is nil
}

var _ Endpoint = (*Port)(nil)

// Local returns the entity this port belongs to.
func (p *Port) Local() pdu.EntityID { return p.id }

// Broadcast sends the batch to every other entity as one datagram per
// destination, on the default group.
func (p *Port) Broadcast(batch ...*pdu.PDU) error {
	return p.BroadcastGroup(0, batch...)
}

// BroadcastGroup sends the batch to every other entity as one datagram
// per destination, tagged with the given group. It is safe for
// concurrent use (shard goroutines broadcast different groups through
// one port).
func (p *Port) BroadcastGroup(group uint32, batch ...*pdu.PDU) error {
	for to := range p.net.ports {
		if pdu.EntityID(to) == p.id {
			continue
		}
		if err := p.net.transmit(p.id, pdu.EntityID(to), group, batch); err != nil {
			return fmt.Errorf("broadcast from %d: %w", p.id, err)
		}
	}
	return nil
}

// Send sends the batch to one entity as one datagram on the default
// group.
func (p *Port) Send(to pdu.EntityID, batch ...*pdu.PDU) error {
	if to == p.id {
		return fmt.Errorf("network: entity %d sending to itself", p.id)
	}
	return p.net.transmit(p.id, to, 0, batch)
}

// Recv returns the inbox channel.
func (p *Port) Recv() <-chan Inbound { return p.inbox }
