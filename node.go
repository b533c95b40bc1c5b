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
// length-prefixed sequence of PDU encodings); the node's link layer
// encodes and decodes frames, so a Transport only moves opaque byte
// slices. Broadcast must deliver (best-effort) to every other cluster
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
// more than one frame, the node's link layer hands the whole set to
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
// or NewNode (custom transport); a node runs its protocol loop on a
// dedicated goroutine until Close.
type Node struct {
	id  int
	n   int
	ent *core.Entity

	// ledger is the default engine's memory ledger (nil without
	// WithMemoryBudget); producers consult it before submitting, the
	// entity (on the loop goroutine) is its only writer. shed selects
	// the producer behaviour at an exhausted budget.
	ledger *core.Ledger
	shed   bool

	// fr is the loop's attachment to the substrate, carrying the
	// default group as group 0: a memFrames for in-process clusters
	// (PDUs move as pointers, no serialization) or a wireFrames for
	// external transports (PDUs move as batch frames). The loop stages
	// outgoing PDUs on it and flushes once per input burst, so every
	// PDU produced while draining the queue coalesces into one
	// datagram. trans is the transport the node owns and closes (nil in
	// a Cluster, whose network outlives its nodes).
	fr    groups.Frames
	trans Transport

	// Multi-group state (see group.go): the sharded runtime starts
	// lazily on the first non-default Group() call or the first
	// group-addressed inbound frame, so single-group nodes pay nothing.
	groupsMu         sync.Mutex
	groupRT          *groups.Registry
	groupPorts       map[GroupID]*GroupPort
	groupLedgers     map[GroupID]*core.Ledger
	groupMetricsUsed int
	gseed            groupSeed

	// flight is the node's flight recorder (nil when disabled): the
	// core entity records lifecycle events into it, the loop adds
	// wire-in/out, producers add backpressure block/shed, and /tracez
	// scrapes it concurrently.
	flight *flight.Ring

	submits chan []byte
	// ctl carries the rare control requests (evict, stats, idle checks,
	// snapshots) as closures the loop runs between inputs.
	ctl     chan func()
	deliver chan Message
	queue   deliveryQueue
	start   time.Time
	tick    time.Duration

	stop      chan struct{}
	loopDone  chan struct{}
	pumpDone  chan struct{}
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
// is for. newFrames builds the substrate's groups.Frames, once for the
// node loop and once per shard if (and only if) the node's group runtime
// starts; every instance shares the node's link metrics. trans, if
// non-nil, is closed with the node.
func newNode[T any](id, n int, o options, trans Transport, inbox <-chan T, addr func(T) (uint32, groups.Inbound), newFrames func(lm *obsv.LinkMetrics) groups.Frames) (*Node, error) {
	cfg := o.coreConfig(id, n)
	cfg.Ledger = o.newLedger()
	var em *obsv.EntityMetrics
	var lm *obsv.LinkMetrics
	if o.registry != nil {
		em = obsv.NewEntityMetrics()
		lm = obsv.NewLinkMetrics()
		cfg.Metrics = em
	}
	fr := o.newFlightRing()
	cfg.Flight = fr
	ent, err := core.New(cfg)
	if err != nil {
		if trans != nil {
			_ = trans.Close()
		}
		return nil, fmt.Errorf("cobcast: node %d: %w", id, err)
	}
	frames := func() groups.Frames { return newFrames(lm) }
	nd := &Node{
		id:       id,
		n:        n,
		ent:      ent,
		flight:   fr,
		ledger:   cfg.Ledger,
		shed:     o.backpressure == BackpressureShed,
		fr:       frames(),
		trans:    trans,
		submits:  make(chan []byte, 64),
		ctl:      make(chan func()),
		deliver:  make(chan Message),
		start:    time.Now(),
		tick:     o.tick(),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
		pumpDone: make(chan struct{}),
		gseed:    groupSeed{o: o, lm: lm, newFrames: frames},
	}
	go loop(nd, inbox, addr)
	go nd.pump()
	if o.registry != nil {
		label := o.registry.RegisterNode(strconv.Itoa(id), em, lm, nd.StateSnapshot)
		o.registry.RegisterFlight(label, fr, nd.start.UnixNano())
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
// BroadcastContext for a cancellable wait.
func (nd *Node) Broadcast(data []byte) error {
	return nd.BroadcastContext(context.Background(), data)
}

// BroadcastContext is Broadcast bounded by a context: cancellation
// unblocks a producer waiting on the memory budget or on the submit
// queue and returns ctx.Err(). In BackpressureShed mode an exhausted
// budget instead fails immediately with ErrOverBudget. The admission
// check happens before anything is sequenced, so a cancelled or shed
// broadcast leaves no trace in protocol state.
func (nd *Node) BroadcastContext(ctx context.Context, data []byte) error {
	if err := nd.admit(ctx, nd.ledger); err != nil {
		return err
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	// Check for shutdown first: with a buffered submit channel the
	// select below could otherwise pick the send case even after Close.
	select {
	case <-nd.stop:
		return ErrClosed
	default:
	}
	select {
	case nd.submits <- buf:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-nd.stop:
		return ErrClosed
	case <-nd.loopDone:
		return ErrClosed
	}
}

// admit applies producer-side backpressure against a memory ledger: nil
// or under-budget admits immediately; otherwise shed mode fails fast and
// block mode waits on the ledger gate until the engine drains below
// budget, the context cancels, or the node closes.
func (nd *Node) admit(ctx context.Context, l *core.Ledger) error {
	if l == nil || !l.OverBudget() {
		return nil
	}
	if nd.shed {
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
		case <-nd.loopDone:
			return ErrClosed
		}
	}
}

// Deliveries returns the stream of causally ordered messages. The channel
// is closed by Close. Consumers should drain it promptly; undelivered
// messages are buffered without bound.
func (nd *Node) Deliveries() <-chan Message { return nd.deliver }

// onLoop runs f on the loop goroutine between inputs and waits for it
// to return. It reports false, without running f, if the loop has
// exited or timeout (nil for none) fires first.
func (nd *Node) onLoop(f func(), timeout <-chan time.Time) bool {
	done := make(chan struct{})
	select {
	case nd.ctl <- func() { f(); close(done) }:
		<-done
		return true
	case <-nd.loopDone:
		return false
	case <-timeout:
		return false
	}
}

// inspect runs read against the entity between inputs on the loop
// goroutine, or directly once the loop has exited (the entity is no
// longer mutated). It reports false if timeout fired first.
func (nd *Node) inspect(read func(), timeout <-chan time.Time) bool {
	if nd.onLoop(read, timeout) {
		return true
	}
	select {
	case <-nd.loopDone:
		read()
		return true
	default:
		return false
	}
}

// Evict removes a crashed or unreachable node from this node's
// confirmation quorum so acknowledgment progress no longer waits for it.
// Every surviving node must evict the same member. See DESIGN.md for the
// extension's guarantees and limitations (no virtual synchrony, no
// rejoin); WithSuspectTimeout automates the decision.
func (nd *Node) Evict(id int) error {
	var err error
	if !nd.onLoop(func() {
		var out core.Output
		out, err = nd.ent.Evict(pdu.EntityID(id), nd.now())
		nd.dispatch(out)
	}, nil) {
		return ErrClosed
	}
	return err
}

// WaitIdle blocks until this node owes the cluster nothing — every
// message it submitted or accepted has been fully acknowledged and
// delivered — or the timeout passes. It is a local view: other nodes may
// still be catching up. Useful to flush before shutdown.
func (nd *Node) WaitIdle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var idle bool
		if !nd.onLoop(func() { idle = nd.ent.Quiescent() }, nil) {
			return ErrClosed
		}
		if idle && nd.groupsIdle() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cobcast: node %d not idle after %v", nd.id, timeout)
		}
		time.Sleep(nd.tick / 2)
	}
}

// Stats returns a snapshot of the node's protocol counters.
func (nd *Node) Stats() Stats {
	var s core.Stats
	nd.inspect(func() { s = nd.ent.Stats() }, nil)
	return fromCoreStats(s)
}

// snapshotTimeout bounds how long a scraper waits for the loop to
// service a state-snapshot request; a loop busy past it simply drops
// off that scrape rather than stalling the endpoint.
const snapshotTimeout = 100 * time.Millisecond

// Stalls returns the stall-analyzer verdicts for every undelivered
// message this node is holding: the pipeline stage, the unmet flow-
// condition term, and the peers whose confirmations are missing. Empty
// when nothing is stuck. ok is false if the loop stayed busy past the
// snapshot timeout. It is the node's obsv.StallsFunc; /statez includes
// the report on every scrape.
func (nd *Node) Stalls() ([]obsv.Stall, bool) {
	var sts []obsv.Stall
	timer := time.NewTimer(snapshotTimeout)
	defer timer.Stop()
	ok := nd.inspect(func() { sts = nd.ent.Stalls(nd.now(), 0) }, timer.C)
	return sts, ok
}

// StateSnapshot returns a consistent copy of the node's live protocol
// state (sequence numbers, confirmation minima, log depths, buffer
// occupancy), taken between inputs on the protocol loop. ok is false
// if the loop stayed busy past an internal timeout. It is the node's
// obsv.SnapshotFunc; the registry and /statez call it on scrapes.
func (nd *Node) StateSnapshot() (obsv.StateSnapshot, bool) {
	var s obsv.StateSnapshot
	ok := nd.StateSnapshotInto(&s)
	return s, ok
}

// StateSnapshotInto is StateSnapshot writing into a caller-owned value
// whose slice capacity is reused (see core.Entity.SnapshotInto), so a
// poller that keeps one scratch snapshot avoids the five O(n) slice
// allocations a fresh snapshot costs. On false (loop busy past the
// timeout) dst is untouched. dst must not be scraped into again while
// a previous fill is still being read elsewhere.
func (nd *Node) StateSnapshotInto(dst *obsv.StateSnapshot) bool {
	timer := time.NewTimer(snapshotTimeout)
	defer timer.Stop()
	// Once the loop accepts the request it owns dst until the fill
	// returns, so onLoop waits for it without a timeout (abandoning dst
	// there would race the loop's write).
	return nd.inspect(func() { nd.ent.SnapshotInto(dst) }, timer.C)
}

// Close stops the node's goroutines, closes its transport (when created
// via NewNode) and closes the delivery channel.
func (nd *Node) Close() error {
	var err error
	nd.closeOnce.Do(func() {
		close(nd.stop)
		<-nd.loopDone
		// Group runtime first: stopping the shards ends group-port queue
		// pushes before those queues close.
		nd.closeGroups()
		nd.queue.close()
		<-nd.pumpDone
		close(nd.deliver)
		if nd.trans != nil {
			err = nd.trans.Close()
		}
	})
	return err
}

// now is the node's protocol clock: time since the node started.
func (nd *Node) now() time.Duration { return time.Since(nd.start) }

// loop serializes every entity input on one goroutine, receiving
// inbound datagrams straight from the substrate's own channel. Outgoing
// PDUs are staged on the frames as they are produced; the loop flushes
// them as one batched datagram only when its inputs go idle, so a burst
// of arrivals (or one input producing several PDUs) coalesces into a
// single frame — flush-on-loop-idle batching.
func loop[T any](nd *Node, in <-chan T, addr func(T) (uint32, groups.Inbound)) {
	defer close(nd.loopDone)
	ticker := time.NewTicker(nd.tick)
	defer ticker.Stop()
	// Bound once: a method value passed per datagram would allocate.
	recv := nd.receive

	for {
		// Block for the next input…
		select {
		case <-nd.stop:
			return
		case data := <-nd.submits:
			nd.dispatch(nd.ent.Submit(data, nd.now()))
		case b, ok := <-in:
			if !ok {
				return
			}
			g, gin := addr(b)
			nd.route(g, gin, recv)
		case <-ticker.C:
			nd.dispatch(nd.ent.Tick(nd.now()))
		case f := <-nd.ctl:
			f()
		}
		// …then drain everything already pending, so the PDUs all of it
		// produces share one flush. Each pass polls every input once,
		// round-robin, with a single-case non-blocking receive — a
		// lock-free check on an empty channel, where re-arming the full
		// select would lock every channel — until a pass finds nothing.
		for more := true; more; {
			more = false
			select {
			case <-nd.stop:
				return
			default:
			}
			select {
			case data := <-nd.submits:
				nd.dispatch(nd.ent.Submit(data, nd.now()))
				more = true
			default:
			}
			select {
			case b, ok := <-in:
				if !ok {
					return
				}
				g, gin := addr(b)
				nd.route(g, gin, recv)
				more = true
			default:
			}
			select {
			case <-ticker.C:
				nd.dispatch(nd.ent.Tick(nd.now()))
				more = true
			default:
			}
			select {
			case f := <-nd.ctl:
				f()
				more = true
			default:
			}
		}
		nd.fr.Flush()
	}
}

// route hands one arriving datagram, addressed to group g, to its
// owner. The default group decodes here on the loop, each PDU going to
// recv under the entity Receive contract: sequenced PDUs are owned by
// the callee, unsequenced ones may be frames scratch reused after recv
// returns. Other groups go whole to the multi-group runtime's owner
// shard. A group ID past pdu.MaxGroupID (a corrupted or hostile header)
// is dropped whole and counted as unknown-group loss.
func (nd *Node) route(g uint32, in groups.Inbound, recv func(p *pdu.PDU)) {
	switch {
	case g > pdu.MaxGroupID:
		nd.gseed.lm.UnknownGroup()
		if in.Raw != nil {
			pdu.PutDatagram(in.Raw)
		}
	case g != 0:
		nd.groupRuntime().Inbound(g, in)
	default:
		nd.fr.Deliver(0, in, recv)
	}
}

func (nd *Node) receive(p *pdu.PDU) {
	now := nd.now()
	nd.recordWire(flight.EvWireIn, p, now)
	out, err := nd.ent.Receive(p, now)
	// Receive errors mark malformed or foreign PDUs; the entity counts
	// them in InvalidPDUs and the protocol carries on.
	_ = err
	nd.dispatch(out)
}

// recordWire notes one PDU crossing the node/network boundary. A RET
// identifies itself by the PDU it chases (LSrc#LSeq), so that is what
// the span assembler needs in the Src/Seq slots; Peer then carries the
// requester-visible source for cross-referencing.
func (nd *Node) recordWire(t flight.EventType, p *pdu.PDU, now time.Duration) {
	if nd.flight == nil {
		return
	}
	src, seq, peer := p.Src, p.SEQ, pdu.NoEntity
	if p.Kind == pdu.KindRet {
		src, seq, peer = p.LSrc, p.LSeq, p.Src
	}
	nd.flight.Record(t, uint8(p.Kind), int32(src), uint64(seq), int32(peer), int64(now))
}

// dispatch stages an entity's output PDUs on the frames as group 0
// (sent at the next flush) and queues its deliveries.
func (nd *Node) dispatch(out core.Output) {
	if nd.flight != nil && len(out.PDUs) > 0 {
		now := nd.now()
		for _, p := range out.PDUs {
			nd.recordWire(flight.EvWireOut, p, now)
		}
	}
	for _, p := range out.PDUs {
		nd.fr.Append(0, p)
	}
	for _, d := range out.Deliveries {
		nd.queue.push(Message{Src: int(d.Src), Seq: uint64(d.SEQ), Data: d.Data, LTime: d.LTime})
	}
}

// pump moves messages from the unbounded queue to the delivery channel so
// a slow consumer never stalls the protocol loop.
func (nd *Node) pump() {
	defer close(nd.pumpDone)
	for {
		m, ok := nd.queue.pop()
		if !ok {
			return
		}
		select {
		case nd.deliver <- m:
		case <-nd.stop:
			// Drain the rest so close is prompt; consumers that closed
			// early asked for this.
			return
		}
	}
}

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
