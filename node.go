package cobcast

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"cobcast/internal/core"
	"cobcast/internal/flight"
	"cobcast/internal/groups"
	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
)

// Transport moves encoded datagrams between nodes. Each datagram is one
// batch frame (see internal/pdu: a versioned header followed by a
// length-prefixed sequence of PDU encodings); the node's frames (see
// frames.go) encode and decode them, so a Transport only moves opaque
// byte slices. Broadcast must deliver (best-effort) to every other cluster
// member; the protocol tolerates loss, duplication and cross-sender
// reordering, but each pairwise channel must preserve per-sender
// datagram order (UDP on a LAN and in-memory channels both qualify) —
// combined with the frame's in-order PDU layout this yields the MC
// service's per-sender PDU order within and across batches. Broadcast
// must not retain the datagram after returning: the node reuses the
// frame buffer for the next send. Recv's channel is closed when the
// transport closes; slices it delivers become owned by the node, which
// recycles pool-backed ones via pdu.PutDatagram after decoding.
type Transport interface {
	Broadcast(datagram []byte) error
	Recv() <-chan []byte
	Close() error
}

// BatchTransport is an optional Transport extension for substrates that
// can move several datagrams in one operation. When a flush has staged
// more than one frame, the node's frames hand the whole set to
// BroadcastBatch instead of looping over Broadcast — the UDP transport's
// sendmmsg path turns that into a single syscall. BroadcastBatch must
// transmit the datagrams in slice order toward every peer (preserving
// the per-sender datagram order the MC service contract requires) and,
// like Broadcast, must not retain any slice after returning.
type BatchTransport interface {
	Transport
	BroadcastBatch(datagrams [][]byte) error
}

// ErrClosed is returned by operations on a closed node or cluster.
var ErrClosed = errors.New("cobcast: closed")

// ErrOverBudget is returned by Broadcast in BackpressureShed mode when
// the memory budget (WithMemoryBudget) is exhausted. The submission was
// not sequenced; the caller may retry once the logs drain.
var ErrOverBudget = errors.New("cobcast: memory budget exhausted")

// Node is one cluster member. Create nodes with NewCluster (in-process)
// or NewNode (custom transport); a node runs its groups' engines on the
// owner loops of its runtime until Close.
type Node struct {
	id int
	n  int
	o  options

	// rt runs every engine of the node, the default group's included,
	// on its shard owner loops; def is the default group's port.
	rt  *groups.Registry
	def *GroupPort
	// trans is the transport the node owns and closes (nil in a
	// Cluster, whose network outlives its nodes).
	trans Transport

	// em and lm are the node's entity and link metrics (nil without
	// WithObservability): the default group's engine counts into em,
	// and every shard's frames into lm. flight is the default group's
	// flight ring (nil when disabled): its engine records lifecycle
	// events into it, its owner shard adds wire-in/out, producers add
	// backpressure block/shed, and /tracez scrapes it concurrently.
	em     *obsv.EntityMetrics
	lm     *obsv.LinkMetrics
	flight *flight.Ring

	// Per-group state (see group.go), guarded by groupsMu. evicted lists
	// the peers Evict removed, applied to every engine built later.
	groupsMu         sync.Mutex
	groupPorts       map[GroupID]*GroupPort
	groupLedgers     map[GroupID]*core.Ledger
	groupMetricsUsed int
	evicted          []pdu.EntityID

	start time.Time
	tick  time.Duration

	stop      chan struct{}
	closeOnce sync.Once
}

// NewNode creates a standalone node that exchanges PDUs through the given
// transport. id must be unique within the cluster and n is the total
// cluster size; all nodes must agree on n and the options.
func NewNode(id, n int, trans Transport, opts ...Option) (*Node, error) {
	if trans == nil {
		return nil, errors.New("cobcast: nil transport")
	}
	o := defaultOptions()
	for _, opt := range opts {
		opt.apply(&o)
	}
	version := uint8(pdu.WireVersion2)
	switch o.wireVersion {
	case 0, 2: // default: the delta-stamp codec
	case 1:
		version = pdu.WireVersion
	default:
		return nil, fmt.Errorf("cobcast: unsupported wire codec version %d", o.wireVersion)
	}
	nd, err := newNode(id, n, o, trans, trans.Recv(), wireGroup,
		func(lm *obsv.LinkMetrics) groups.Frames {
			return newWireFrames(trans, version, o.stampInterval, lm)
		})
	if err != nil {
		return nil, err
	}
	if o.registry != nil {
		// Stamp the send-side wire codec on cobcast_build_info so scrapes
		// from mixed-codec clusters stay attributable.
		o.registry.SetBuildLabel("codec", fmt.Sprintf("v%d", version))
		// A transport that exposes live counters (UDPTransport does)
		// publishes them alongside the node's metrics; one that also
		// reports its wire-path configuration (batched syscalls, socket
		// buffer sizes) gets that attached for /statez.
		if tm, ok := trans.(interface{ Metrics() *obsv.TransportMetrics }); ok {
			lbl := o.registry.RegisterTransport(strconv.Itoa(id), tm.Metrics())
			if ts, ok := trans.(interface{ TransportState() obsv.TransportState }); ok {
				o.registry.SetTransportState(lbl, ts.TransportState())
			}
		}
	}
	return nd, nil
}

// newNode assembles a node over its substrate: inbox is the
// substrate's own receive channel, one entry per arriving datagram,
// closed when the substrate closes; addr names the group each datagram
// is for. newFrames builds the substrate's groups.Frames, once per
// shard that starts; every instance shares the node's link metrics.
// trans, if non-nil, is closed with the node.
func newNode[T any](id, n int, o options, trans Transport, inbox <-chan T, addr func(T) (uint32, groups.Inbound), newFrames func(lm *obsv.LinkMetrics) groups.Frames) (*Node, error) {
	nd := &Node{
		id:     id,
		n:      n,
		o:      o,
		trans:  trans,
		flight: o.newFlightRing(),
		start:  time.Now(),
		tick:   o.tick(),
		stop:   make(chan struct{}),
	}
	if o.registry != nil {
		nd.em = obsv.NewEntityMetrics()
		nd.lm = obsv.NewLinkMetrics()
	}
	rt, err := groups.New(groups.Config{
		Shards:         o.groupShards,
		MaxGroups:      o.maxGroups,
		NewEntity:      nd.newGroupEntity,
		NewFrames:      func() groups.Frames { return newFrames(nd.lm) },
		Deliver:        nd.deliverGroup,
		DroppedUnknown: nd.lm.UnknownGroup,
		Tick:           nd.tick,
		Now:            nd.now,
	}, inbox, addr)
	if err != nil {
		if trans != nil {
			_ = trans.Close()
		}
		return nil, err
	}
	nd.rt = rt
	nd.def = nd.Group(DefaultGroup)
	if o.registry != nil {
		label := o.registry.RegisterNode(strconv.Itoa(id), nd.em, nd.lm, nd.StateSnapshot)
		o.registry.RegisterFlight(label, 0, nd.flight, nd.start.UnixNano())
		o.registry.RegisterStalls(label, nd.Stalls)
	}
	return nd, nil
}

// ID returns the node's cluster-unique identifier.
func (nd *Node) ID() int { return nd.id }

// Broadcast submits data for causally ordered broadcast to the whole
// cluster (including this node: the message comes back on Deliveries once
// it is fully acknowledged). The data is copied. With WithMemoryBudget in
// BackpressureBlock mode it blocks while the budget is exhausted; use
// BroadcastContext for a cancellable wait. It is the default group
// port's Broadcast.
func (nd *Node) Broadcast(data []byte) error { return nd.def.Broadcast(data) }

// BroadcastContext is Broadcast bounded by a context: cancellation
// unblocks a producer waiting on the memory budget or on the submit
// queue and returns ctx.Err(). In BackpressureShed mode an exhausted
// budget instead fails immediately with ErrOverBudget. The admission
// check happens before anything is sequenced, so a cancelled or shed
// broadcast leaves no trace in protocol state.
func (nd *Node) BroadcastContext(ctx context.Context, data []byte) error {
	return nd.def.BroadcastContext(ctx, data)
}

// admit applies producer-side backpressure against a memory ledger: nil
// or under-budget admits immediately; otherwise shed mode fails fast and
// block mode waits on the ledger gate until the engine drains below
// budget, the context cancels, or the node closes.
func (nd *Node) admit(ctx context.Context, l *core.Ledger) error {
	if l == nil || !l.OverBudget() {
		return nil
	}
	if nd.o.backpressure == BackpressureShed {
		l.NoteShed()
		nd.flight.Record(flight.EvShed, 0, int32(nd.id), 0, int32(pdu.NoEntity), int64(nd.now()))
		return ErrOverBudget
	}
	l.NoteBlock()
	nd.flight.Record(flight.EvBlock, 0, int32(nd.id), 0, int32(pdu.NoEntity), int64(nd.now()))
	for {
		g := l.Gate()
		// Re-check after grabbing the gate: the engine may have drained
		// (and swapped gates) between the check and the grab.
		if !l.OverBudget() {
			return nil
		}
		select {
		case <-g:
		case <-ctx.Done():
			return ctx.Err()
		case <-nd.stop:
			return ErrClosed
		}
	}
}

// Deliveries returns the stream of causally ordered messages. The channel
// is closed by Close. Consumers should drain it promptly; undelivered
// messages are buffered without bound. It is the default group port's
// Deliveries.
func (nd *Node) Deliveries() <-chan Message { return nd.def.Deliveries() }

// Evict removes a crashed or unreachable node from this node's
// confirmation quorum, in every group, so acknowledgment progress no
// longer waits for it; groups whose engines are built later start
// without it. Every surviving node must evict the same member. See
// DESIGN.md for the extension's guarantees and limitations (no virtual
// synchrony, no rejoin); WithSuspectTimeout automates the decision.
func (nd *Node) Evict(id int) error {
	k := pdu.EntityID(id)
	var err error
	// The default group validates the ID; every engine shares its n and
	// its own ID, so the others would accept and reject alike.
	if !nd.rt.Update(0, func(e *core.Entity, now time.Duration) core.Output {
		var out core.Output
		out, err = e.Evict(k, now)
		return out
	}) {
		return ErrClosed
	}
	if err != nil {
		return err
	}
	nd.groupsMu.Lock()
	nd.evicted = append(nd.evicted, k)
	nd.groupsMu.Unlock()
	// Recorded before the sweep, so an engine built meanwhile either
	// starts with k evicted or is visited by the sweep.
	if !nd.rt.Each(func(_ uint32, e *core.Entity, now time.Duration) core.Output {
		out, _ := e.Evict(k, now)
		return out
	}) {
		return ErrClosed
	}
	return nil
}

// WaitIdle blocks until this node owes the cluster nothing — every
// message it submitted or accepted, in every group, has been fully
// acknowledged and delivered — or the timeout passes. It is a local
// view: other nodes may still be catching up. Useful to flush before
// shutdown.
func (nd *Node) WaitIdle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		idle := true
		if !nd.rt.Each(func(_ uint32, e *core.Entity, _ time.Duration) core.Output {
			idle = idle && e.Quiescent()
			return core.Output{}
		}) {
			return ErrClosed
		}
		if idle {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cobcast: node %d not idle after %v", nd.id, timeout)
		}
		time.Sleep(nd.tick / 2)
	}
}

// Stats returns a snapshot of the node's protocol counters for the
// default group.
func (nd *Node) Stats() Stats {
	s, _ := nd.def.Stats()
	return s
}

// snapshotTimeout bounds how long a scraper waits for an owner loop to
// take a state-snapshot request; a loop busy past it simply drops off
// that scrape rather than stalling the endpoint.
const snapshotTimeout = 100 * time.Millisecond

// Stalls returns the stall-analyzer verdicts for every undelivered
// message this node is holding in the default group: the pipeline
// stage, the unmet flow-condition term, and the peers whose
// confirmations are missing. Empty when nothing is stuck. ok is false
// if the loop stayed busy past the snapshot timeout. It is the node's
// obsv.StallsFunc; /statez includes the report on every scrape.
func (nd *Node) Stalls() ([]obsv.Stall, bool) { return nd.groupStalls(0) }

func (nd *Node) groupStalls(g uint32) ([]obsv.Stall, bool) {
	var sts []obsv.Stall
	timer := time.NewTimer(snapshotTimeout)
	defer timer.Stop()
	ok := nd.rt.Inspect(g, timer.C, func(e *core.Entity) { sts = e.Stalls(nd.now(), 0) })
	return sts, ok
}

// StateSnapshot returns a consistent copy of the node's live protocol
// state for the default group (sequence numbers, confirmation minima,
// log depths, buffer occupancy), taken between inputs on its owner
// loop. ok is false if the loop stayed busy past an internal timeout.
// It is the node's obsv.SnapshotFunc; the registry and /statez call it
// on scrapes.
func (nd *Node) StateSnapshot() (obsv.StateSnapshot, bool) { return nd.groupSnapshot(0) }

func (nd *Node) groupSnapshot(g uint32) (obsv.StateSnapshot, bool) {
	var s obsv.StateSnapshot
	ok := nd.groupSnapshotInto(g, &s)
	s.Group = g
	return s, ok
}

// StateSnapshotInto is StateSnapshot writing into a caller-owned value
// whose slice capacity is reused (see core.Entity.SnapshotInto), so a
// poller that keeps one scratch snapshot avoids the five O(n) slice
// allocations a fresh snapshot costs. On false (loop busy past the
// timeout) dst is untouched. dst must not be scraped into again while
// a previous fill is still being read elsewhere.
func (nd *Node) StateSnapshotInto(dst *obsv.StateSnapshot) bool { return nd.groupSnapshotInto(0, dst) }

func (nd *Node) groupSnapshotInto(g uint32, dst *obsv.StateSnapshot) bool {
	timer := time.NewTimer(snapshotTimeout)
	defer timer.Stop()
	// Once the loop takes the request it owns dst until the fill
	// returns, so Inspect waits for it without a timeout (abandoning dst
	// there would race the loop's write).
	return nd.rt.Inspect(g, timer.C, func(e *core.Entity) { e.SnapshotInto(dst) })
}

// Close stops the node's goroutines, closes its transport (when created
// via NewNode) and closes the delivery channels.
func (nd *Node) Close() error {
	var err error
	nd.closeOnce.Do(func() {
		close(nd.stop)
		// Runtime first: stopping the shards ends delivery-queue pushes
		// before those queues close.
		nd.rt.Close()
		nd.groupsMu.Lock()
		ports := make([]*GroupPort, 0, len(nd.groupPorts))
		for _, p := range nd.groupPorts {
			ports = append(ports, p)
		}
		nd.groupsMu.Unlock()
		for _, p := range ports {
			p.queue.close()
			<-p.pumpDone
			close(p.deliver)
		}
		if nd.trans != nil {
			err = nd.trans.Close()
		}
	})
	return err
}

// now is the node's protocol clock: time since the node started.
func (nd *Node) now() time.Duration { return time.Since(nd.start) }

// deliveryQueue is an unbounded FIFO with blocking pop.
type deliveryQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []Message
	closed bool
}

func (q *deliveryQueue) push(m Message) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.cond == nil {
		q.cond = sync.NewCond(&q.mu)
	}
	if q.closed {
		return
	}
	q.items = append(q.items, m)
	q.cond.Signal()
}

// pop blocks until an item is available or the queue closes; ok is false
// only when the queue is closed and drained.
func (q *deliveryQueue) pop() (Message, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.cond == nil {
		q.cond = sync.NewCond(&q.mu)
	}
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return Message{}, false
	}
	m := q.items[0]
	q.items[0] = Message{}
	q.items = q.items[1:]
	return m, true
}

func (q *deliveryQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.cond == nil {
		q.cond = sync.NewCond(&q.mu)
	}
	q.closed = true
	q.cond.Broadcast()
}
