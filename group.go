package cobcast

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"

	"cobcast/internal/core"
	"cobcast/internal/groups"
	"cobcast/internal/network"
	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
)

// GroupID names one independently ordered group (topic). Group 0 is the
// default group every Node speaks on; non-zero IDs are usually derived
// from names with Group. Each group is its own protocol instance — own
// sequence numbers, acknowledgment vectors, retransmission and delivery
// order — multiplexed over the node's one transport.
type GroupID uint32

// DefaultGroup is the group Node.Broadcast and Node.Deliveries use; its
// wire traffic is byte-identical to a single-group node's.
const DefaultGroup GroupID = 0

// MaxGroups is the default bound on lazily instantiated groups per node;
// see WithMaxGroups.
const MaxGroups = groups.DefaultMaxGroups

// ErrTooManyGroups is returned by GroupPort.Broadcast when the node's
// group bound (WithMaxGroups) is exhausted.
var ErrTooManyGroups = errors.New("cobcast: too many groups")

// Group derives a GroupID from a name: FNV-1a, folded into the wire
// codec's valid range, with 0 reserved for the default group. All nodes
// derive identical IDs from identical names. Distinct names may collide
// (it is a 28-bit hash); colliding groups merge into one ordered group,
// which is safe but surprising — applications needing guaranteed
// disjointness should assign numeric GroupIDs themselves.
func Group(name string) GroupID {
	h := fnv.New32a()
	_, _ = h.Write([]byte(name))
	g := h.Sum32() & pdu.MaxGroupID
	if g == 0 {
		// Remap the (1-in-2^28) hash landing on the reserved default
		// group; any fixed non-zero value keeps all nodes in agreement.
		g = 0x9E3779B1 & pdu.MaxGroupID
	}
	return GroupID(g)
}

// GroupPort is a node's handle on one group: Broadcast submits to the
// group's ordered stream, Deliveries yields the group's causally (or
// totally) ordered messages. Obtain ports with Node.Group or
// Cluster.Group; the same port is returned for the same ID. The
// DefaultGroup port is the node itself in disguise — its Broadcast and
// Deliveries are exactly Node.Broadcast and Node.Deliveries.
type GroupPort struct {
	nd *Node
	id GroupID

	// ledger is this group's memory ledger (nil without
	// WithMemoryBudget): every group engine gets its own budget, and the
	// port gates its producers on it exactly as Node.Broadcast gates on
	// the default engine's.
	ledger *core.Ledger

	// Non-default ports run their own unbounded queue + pump so a slow
	// consumer of one group never stalls the shard that feeds it (or
	// any other group). def ports delegate to the node's.
	def      bool
	queue    deliveryQueue
	deliver  chan Message
	pumpDone chan struct{}
}

// ID returns the port's group.
func (p *GroupPort) ID() GroupID { return p.id }

// Broadcast submits data for ordered broadcast on this group. The data
// is copied. The first send on a group lazily instantiates its engine
// on every receiving node, up to the WithMaxGroups bound. With
// WithMemoryBudget it blocks or sheds (per WithBackpressure) against
// this group's own budget.
func (p *GroupPort) Broadcast(data []byte) error {
	return p.BroadcastContext(context.Background(), data)
}

// BroadcastContext is Broadcast bounded by a context; see
// Node.BroadcastContext for the backpressure semantics.
func (p *GroupPort) BroadcastContext(ctx context.Context, data []byte) error {
	if p.def {
		return p.nd.BroadcastContext(ctx, data)
	}
	if err := p.nd.admit(ctx, p.ledger); err != nil {
		return err
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	select {
	case <-p.nd.stop:
		return ErrClosed
	default:
	}
	err := p.nd.groupRuntime().Submit(uint32(p.id), buf)
	switch {
	case errors.Is(err, groups.ErrClosed):
		return ErrClosed
	case errors.Is(err, groups.ErrTooManyGroups):
		return fmt.Errorf("%w: group %d", ErrTooManyGroups, p.id)
	}
	return err
}

// Deliveries returns the group's ordered message stream. The channel is
// closed by Node.Close. Consumers should drain promptly; undelivered
// messages buffer without bound.
func (p *GroupPort) Deliveries() <-chan Message {
	if p.def {
		return p.nd.deliver
	}
	return p.deliver
}

// Stats returns the group's protocol counters; ok is false if the group
// has no engine on this node yet.
func (p *GroupPort) Stats() (Stats, bool) {
	if p.def {
		return p.nd.Stats(), true
	}
	s, ok := p.nd.groupRuntime().Stats(uint32(p.id))
	if !ok {
		return Stats{}, false
	}
	return fromCoreStats(s), true
}

// pump mirrors Node.pump for one group's queue.
func (p *GroupPort) pump() {
	defer close(p.pumpDone)
	for {
		m, ok := p.queue.pop()
		if !ok {
			return
		}
		select {
		case p.deliver <- m:
		case <-p.nd.stop:
			return
		}
	}
}

// Group returns the node's port on group g, creating it on first use.
// For g != DefaultGroup this starts the node's multi-group runtime (a
// set of shard goroutines, see WithGroupShards) if it is not running
// yet.
func (nd *Node) Group(g GroupID) *GroupPort {
	nd.groupsMu.Lock()
	defer nd.groupsMu.Unlock()
	return nd.portLocked(g)
}

// Group returns node i's port on group g; shorthand for
// c.Node(i).Group(g).
func (c *Cluster) Group(i int, g GroupID) *GroupPort { return c.nodes[i].Group(g) }

func (nd *Node) portLocked(g GroupID) *GroupPort {
	if p, ok := nd.groupPorts[g]; ok {
		return p
	}
	if nd.groupPorts == nil {
		nd.groupPorts = make(map[GroupID]*GroupPort)
	}
	p := &GroupPort{nd: nd, id: g, ledger: nd.groupLedgerLocked(g)}
	if g == DefaultGroup {
		p.def = true
	} else {
		p.deliver = make(chan Message)
		p.pumpDone = make(chan struct{})
		// Reserve the group so its engine can be built on first input;
		// past the MaxGroups bound the reservation fails and the error
		// surfaces on Broadcast instead.
		_ = nd.groupRuntimeLocked().Open(uint32(g))
		go p.pump()
	}
	nd.groupPorts[g] = p
	return p
}

// groupRuntime returns the node's multi-group runtime, starting it on
// first use.
func (nd *Node) groupRuntime() *groups.Registry {
	nd.groupsMu.Lock()
	defer nd.groupsMu.Unlock()
	return nd.groupRuntimeLocked()
}

func (nd *Node) groupRuntimeLocked() *groups.Registry {
	if nd.groupRT != nil {
		return nd.groupRT
	}
	rt, err := groups.New(groups.Config{
		Shards:         nd.gseed.o.groupShards,
		MaxGroups:      nd.gseed.o.maxGroups,
		NewEntity:      nd.newGroupEntity,
		NewFrames:      nd.gseed.newFrames,
		Deliver:        nd.deliverGroup,
		DroppedUnknown: nd.gseed.lm.UnknownGroup,
		Tick:           nd.tick,
		Now:            nd.now,
	})
	if err != nil {
		// The config is complete by construction; an error here is a
		// programming error, not a runtime condition.
		panic(fmt.Sprintf("cobcast: group runtime: %v", err))
	}
	nd.groupRT = rt
	return rt
}

// statezGroupLimit bounds per-group metric/snapshot registrations per
// node: the first statezGroupLimit groups get full per-group counter
// families and /statez sections; later groups run engines without
// per-group instrumentation, keeping scrape cardinality bounded however
// many groups a workload mints.
const statezGroupLimit = 16

// groupLedger returns group g's memory ledger, creating it on first use
// (nil without WithMemoryBudget). The default group shares the node's
// ledger — its engine runs on the node loop, not a shard.
func (nd *Node) groupLedger(g GroupID) *core.Ledger {
	nd.groupsMu.Lock()
	defer nd.groupsMu.Unlock()
	return nd.groupLedgerLocked(g)
}

func (nd *Node) groupLedgerLocked(g GroupID) *core.Ledger {
	if g == DefaultGroup {
		return nd.ledger
	}
	if l, ok := nd.groupLedgers[g]; ok {
		return l
	}
	l := nd.gseed.o.newLedger()
	if l != nil {
		if nd.groupLedgers == nil {
			nd.groupLedgers = make(map[GroupID]*core.Ledger)
		}
		nd.groupLedgers[g] = l
	}
	return l
}

// newGroupEntity builds group g's engine — groups.Registry calls it on
// the owning shard goroutine at the group's first input. The engine gets
// the same protocol configuration as the node's default engine: group
// isolation comes from frame routing, not from the cluster ID. Each
// group's engine writes its own ledger (shared with the group's port,
// which gates producers on it).
func (nd *Node) newGroupEntity(g uint32) (*core.Entity, error) {
	cfg := nd.gseed.o.coreConfig(nd.id, nd.n)
	cfg.Ledger = nd.groupLedger(GroupID(g))
	reg := nd.gseed.o.registry
	if reg != nil && nd.groupMetricsSlot() {
		em := obsv.NewEntityMetrics()
		cfg.Metrics = em
		cfg.Flight = nd.gseed.o.newFlightRing()
		label := fmt.Sprintf("%d/g%d", nd.id, g)
		got := reg.RegisterNode(label, em, nil, func() (obsv.StateSnapshot, bool) {
			var s obsv.StateSnapshot
			if !nd.groupRuntime().SnapshotInto(g, &s) {
				return obsv.StateSnapshot{}, false
			}
			s.Group = g
			return s, true
		})
		// Group engines share the node's monotonic clock (gseed wires
		// nd.now into the runtime), so the node's start is their epoch.
		reg.RegisterFlight(got, cfg.Flight, nd.start.UnixNano())
		reg.RegisterStalls(got, func() ([]obsv.Stall, bool) {
			var sts []obsv.Stall
			if !nd.groupRuntime().Stalls(g, &sts) {
				return nil, false
			}
			return sts, true
		})
	}
	ent, err := core.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("cobcast: node %d group %d: %w", nd.id, g, err)
	}
	return ent, nil
}

// groupMetricsSlot claims one of the node's statezGroupLimit per-group
// instrumentation slots.
func (nd *Node) groupMetricsSlot() bool {
	nd.groupsMu.Lock()
	defer nd.groupsMu.Unlock()
	if nd.groupMetricsUsed >= statezGroupLimit {
		return false
	}
	nd.groupMetricsUsed++
	return true
}

// deliverGroup routes one group delivery (on its shard goroutine) to the
// group's port, creating the port on first delivery so messages for
// groups the application has not opened yet are queued, not lost.
func (nd *Node) deliverGroup(g uint32, d core.Delivery) {
	nd.groupsMu.Lock()
	p := nd.portLocked(GroupID(g))
	nd.groupsMu.Unlock()
	p.queue.push(Message{
		Group: GroupID(g),
		Src:   int(d.Src),
		Seq:   uint64(d.SEQ),
		Data:  d.Data,
		LTime: d.LTime,
	})
}

// toGroup hands one group-addressed datagram to the multi-group
// runtime's owner shard, starting the runtime on first use. Runs on the
// loop goroutine.
func (nd *Node) toGroup(g uint32, in groups.Inbound) {
	nd.groupRuntime().Inbound(g, in)
}

// groupsIdle reports whether the multi-group runtime (if running) owes
// the cluster nothing.
func (nd *Node) groupsIdle() bool {
	nd.groupsMu.Lock()
	rt := nd.groupRT
	nd.groupsMu.Unlock()
	return rt == nil || rt.Quiescent()
}

// closeGroups tears down the group runtime and ports after the protocol
// loop has exited: shards stop (no more deliveries), then each port's
// queue drains its pump and the delivery channels close.
func (nd *Node) closeGroups() {
	nd.groupsMu.Lock()
	rt := nd.groupRT
	ports := make([]*GroupPort, 0, len(nd.groupPorts))
	for _, p := range nd.groupPorts {
		ports = append(ports, p)
	}
	nd.groupsMu.Unlock()
	if rt != nil {
		rt.Close()
	}
	for _, p := range ports {
		if p.def {
			continue
		}
		p.queue.close()
		<-p.pumpDone
		close(p.deliver)
	}
}

// groupSeed carries what a node needs to start its multi-group runtime
// lazily: the construction options and the substrate-specific frames
// factory (wire or in-memory).
type groupSeed struct {
	o         options
	lm        *obsv.LinkMetrics
	newFrames func(shard int) groups.Frames
}

// wireGroupFrames is one shard's groups.Frames over a Transport: the
// multi-group analogue of wireLink. Outbound PDUs marshal straight into
// per-group in-progress v3 frames; Flush seals one frame per active
// group and hands the whole set to the transport in one BroadcastBatch
// (one sendmmsg on the batched wire path) — frames from many groups
// share the staged-batch syscall win. Inbound v3 frames decode through
// per-group decoder+stamp state, because each group is an independent
// sequence space and v2 delta stamps reference per-source, per-group
// streams.
//
// Only the owning shard goroutine touches a wireGroupFrames; the
// transport underneath accepts concurrent sends from all shards (and
// the node loop).
type wireGroupFrames struct {
	trans   Transport
	bt      BatchTransport
	version uint8
	stampK  int
	lm      *obsv.LinkMetrics

	send   map[uint32]*groupSendState
	order  []uint32 // groups with an open frame, in first-append order
	staged [][]byte // scratch for Flush's one-frame-per-group sweep

	recv    map[uint32]*groupRecvState
	scratch pdu.PDU
}

type groupSendState struct {
	enc    pdu.FrameEncoder
	stamps *pdu.StampEncoder
	buf    []byte // grow-once build buffer
	open   bool
}

type groupRecvState struct {
	dec  pdu.FrameDecoder
	sdec pdu.StampDecoder
}

func newWireGroupFrames(trans Transport, version uint8, stampK int, lm *obsv.LinkMetrics) *wireGroupFrames {
	f := &wireGroupFrames{
		trans:   trans,
		version: version,
		stampK:  stampK,
		lm:      lm,
		send:    make(map[uint32]*groupSendState),
		recv:    make(map[uint32]*groupRecvState),
	}
	if bt, ok := trans.(BatchTransport); ok {
		f.bt = bt
	}
	return f
}

func (f *wireGroupFrames) sendState(g uint32) *groupSendState {
	st, ok := f.send[g]
	if !ok {
		st = &groupSendState{buf: make([]byte, 0, 2048)}
		if f.version == pdu.WireVersion2 {
			st.stamps = pdu.NewStampEncoder(f.stampK)
		}
		f.send[g] = st
	}
	return st
}

func (f *wireGroupFrames) entryBound(p *pdu.PDU) int {
	if f.version == pdu.WireVersion2 {
		return p.EncodedSizeV2Bound()
	}
	return p.EncodedSize()
}

// Append stages p on group g's in-progress frame. A frame that would
// overflow MaxDatagram is sealed and sent immediately (the early-flush
// path); the common case keeps exactly one open frame per group until
// the shard's flush.
func (f *wireGroupFrames) Append(g uint32, p *pdu.PDU) {
	st := f.sendState(g)
	if !st.open {
		st.enc.BeginGroup(st.buf[:0], g, f.version, st.stamps)
		st.open = true
		f.order = append(f.order, g)
	}
	if st.enc.Count() > 0 && st.enc.Size()+pdu.FrameEntrySize+f.entryBound(p) > MaxDatagram {
		f.lm.Flush(st.enc.Count(), true)
		b := st.enc.Bytes()
		f.lm.FlushBytes(len(b), f.version)
		_ = f.trans.Broadcast(b)
		st.buf = b
		st.enc.BeginGroup(st.buf[:0], g, f.version, st.stamps)
	}
	// An Append error means the PDU itself cannot be encoded (field
	// overflow); dropping it is indistinguishable from transport loss.
	_ = st.enc.Append(p)
}

// Flush seals every open frame and hands the set — one frame per group
// that spoke since the last flush — to the transport in one batched
// send.
func (f *wireGroupFrames) Flush() {
	if len(f.order) == 0 {
		return
	}
	f.staged = f.staged[:0]
	for _, g := range f.order {
		st := f.send[g]
		if !st.open {
			continue
		}
		st.open = false
		if st.enc.Count() == 0 {
			continue
		}
		f.lm.Flush(st.enc.Count(), false)
		b := st.enc.Bytes()
		f.lm.FlushBytes(len(b), f.version)
		st.buf = b // retain the grown buffer for the next frame
		f.staged = append(f.staged, b)
	}
	f.order = f.order[:0]
	switch {
	case len(f.staged) == 0:
	case len(f.staged) == 1:
		_ = f.trans.Broadcast(f.staged[0])
	case f.bt != nil:
		_ = f.bt.BroadcastBatch(f.staged)
	default:
		for _, b := range f.staged {
			_ = f.trans.Broadcast(b)
		}
	}
	for i := range f.staged {
		f.staged[i] = nil
	}
}

// Deliver decodes one inbound v3 frame for group g with the group's own
// decoder and stamp cache, under the same loss semantics as
// wireLink.deliver.
func (f *wireGroupFrames) Deliver(g uint32, in groups.Inbound, fn func(p *pdu.PDU)) {
	rs, ok := f.recv[g]
	if !ok {
		rs = &groupRecvState{}
		rs.dec.SetStampDecoder(&rs.sdec)
		f.recv[g] = rs
	}
	err := rs.dec.Reset(in.Raw)
	if err == nil {
		f.lm.RecvBytes(len(in.Raw), rs.dec.Version())
	}
	for err == nil {
		var more bool
		more, err = rs.dec.Next(&f.scratch)
		if !more {
			break
		}
		// Clone shares Delta, which aliases this channel's stamp
		// decoder scratch; the retained copy takes ownership.
		if f.scratch.Kind.Sequenced() {
			fn(f.scratch.Clone().OwnDelta())
		} else {
			fn(&f.scratch)
		}
	}
	if errors.Is(err, pdu.ErrDeltaDesync) {
		f.lm.StampDesync()
	}
	pdu.PutDatagram(in.Raw)
}

func (f *wireGroupFrames) Close() {}

// memGroupFrames is one shard's groups.Frames over the in-memory
// network: PDUs move as pointers, group-tagged at the network boundary
// (which clones them), mirroring memLink.
type memGroupFrames struct {
	port   *network.Port
	lm     *obsv.LinkMetrics
	order  []uint32
	staged map[uint32][]*pdu.PDU
}

func newMemGroupFrames(port *network.Port, lm *obsv.LinkMetrics) *memGroupFrames {
	return &memGroupFrames{port: port, lm: lm, staged: make(map[uint32][]*pdu.PDU)}
}

func (f *memGroupFrames) Append(g uint32, p *pdu.PDU) {
	batch := f.staged[g]
	if batch == nil {
		f.order = append(f.order, g)
	}
	batch = append(batch, p)
	if len(batch) >= memBatchMax {
		f.lm.Flush(len(batch), true)
		_ = f.port.BroadcastGroup(g, batch...)
		batch = batch[:0]
	}
	f.staged[g] = batch
}

func (f *memGroupFrames) Flush() {
	for _, g := range f.order {
		batch := f.staged[g]
		if len(batch) > 0 {
			f.lm.Flush(len(batch), false)
			_ = f.port.BroadcastGroup(g, batch...)
		}
		delete(f.staged, g)
	}
	f.order = f.order[:0]
}

func (f *memGroupFrames) Deliver(g uint32, in groups.Inbound, fn func(p *pdu.PDU)) {
	for _, p := range in.PDUs {
		fn(p)
	}
}

func (f *memGroupFrames) Close() {}
