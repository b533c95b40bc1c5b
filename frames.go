package cobcast

import (
	"errors"

	"cobcast/internal/groups"
	"cobcast/internal/network"
	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
)

// A node reaches its substrate through one groups.Frames per shard of
// its runtime, all from the same factory; the home shard's carries the
// default group as group 0. Each owner loop stages outgoing PDUs with
// Append and coalesces them into one datagram per group per Flush,
// which it calls whenever its input queue goes idle, so every PDU
// produced by one input burst rides together. Frames preserve
// per-sender datagram order, which with the frame ordering contract
// preserves per-sender PDU order within and across batches (the MC
// service contract).
//
// Ownership: Append borrows the PDU pointer until the next Flush; entity
// output PDUs are immutable after creation (the sendlog retransmits them
// bit-identically), so staging them is safe.

// wireBatchMax bounds how many sealed frames a wireFrames stages before
// sending them mid-drain; it keeps one very long input burst from
// growing the staging buffers without bound while still letting the
// common burst ride down in a single BroadcastBatch call.
const wireBatchMax = 16

// wireFrames is the groups.Frames over a Transport. Append marshals each
// PDU straight into its group's in-progress frame, sealing that frame
// into the staged set first if the PDU would push it past MaxDatagram.
// Flush seals every open frame and hands the whole staged set to the
// transport in seal order — in one BroadcastBatch call when the
// transport implements BatchTransport (the UDP transport's sendmmsg path
// turns that into one syscall per flush), else one Broadcast per frame.
// Deliver decodes arriving frames into a reused scratch PDU, so the
// whole encode/decode hot path is allocation-free in steady state,
// reusing a small set of grown frame buffers and the transport's
// datagram pool.
//
// Group 0 is sent as v1/v2 frames, byte-identical to a single-group
// node's; every other group as v3 frames carrying the group ID. Each
// group is its own sequence space, so encoder, stamp encoder, decoder
// and stamp cache are all per group. The entry codec version is a
// send-side choice: reception accepts v1 and v2 entries alike (the
// per-source stamp cache resolves v2 delta entries whatever this node
// emits), so a mixed-version cluster interoperates and the version can
// roll node by node.
//
// Only the owning loop goroutine touches a wireFrames; the transport
// underneath accepts concurrent sends from every owner loop.
type wireFrames struct {
	trans Transport
	// bt is trans's batched-send extension, nil when unimplemented.
	bt      BatchTransport
	version uint8
	stampK  int
	lm      *obsv.LinkMetrics // nil unless instrumented

	send map[uint32]*sendChannel
	open []*sendChannel // channels with an open frame, in first-append order
	// staged holds sealed frames awaiting send, in seal order; free
	// holds build buffers not in use, retained so each grows once.
	staged, free [][]byte

	recv    map[uint32]*recvChannel
	scratch pdu.PDU
}

// sendChannel is one group's outgoing stream state.
type sendChannel struct {
	g   uint32
	enc pdu.FrameEncoder
	// stamps is the v2 reference-stamp state threaded through every
	// frame of the group; nil for codec v1.
	stamps *pdu.StampEncoder
	open   bool
}

// recvChannel is one group's incoming stream state: stamps caches the
// last stamp decoded per source, mirroring each sender's stream across
// frames (see pdu.StampDecoder).
type recvChannel struct {
	dec    pdu.FrameDecoder
	stamps pdu.StampDecoder
}

// newWireFrames attaches trans using entry codec version (pdu.WireVersion
// or pdu.WireVersion2). stampK is v2's full-stamp sync interval; <= 0
// selects pdu.DefaultStampInterval.
func newWireFrames(trans Transport, version uint8, stampK int, lm *obsv.LinkMetrics) *wireFrames {
	f := &wireFrames{
		trans:   trans,
		version: version,
		stampK:  stampK,
		lm:      lm,
		send:    make(map[uint32]*sendChannel),
		recv:    make(map[uint32]*recvChannel),
	}
	if bt, ok := trans.(BatchTransport); ok {
		f.bt = bt
	}
	return f
}

// begin opens c's next frame in a free build buffer.
func (f *wireFrames) begin(c *sendChannel) {
	var buf []byte
	if k := len(f.free); k > 0 {
		buf, f.free = f.free[k-1][:0], f.free[:k-1]
	} else {
		buf = make([]byte, 0, 4096)
	}
	switch {
	case c.g != 0:
		c.enc.BeginGroup(buf, c.g, f.version, c.stamps)
	case f.version == pdu.WireVersion2:
		c.enc.BeginV2(buf, c.stamps)
	default:
		c.enc.Begin(buf)
	}
}

// entryBound returns an upper bound on p's encoded size under the entry
// codec, for the early-flush datagram budget.
func (f *wireFrames) entryBound(p *pdu.PDU) int {
	if f.version == pdu.WireVersion2 {
		return p.EncodedSizeV2Bound()
	}
	return p.EncodedSize()
}

func (f *wireFrames) Append(g uint32, p *pdu.PDU) {
	c, ok := f.send[g]
	if !ok {
		c = &sendChannel{g: g}
		if f.version == pdu.WireVersion2 {
			c.stamps = pdu.NewStampEncoder(f.stampK)
		}
		f.send[g] = c
	}
	if !c.open {
		f.begin(c)
		c.open = true
		f.open = append(f.open, c)
	} else if c.enc.Count() > 0 && c.enc.Size()+pdu.FrameEntrySize+f.entryBound(p) > MaxDatagram {
		f.seal(c, true)
		f.begin(c)
	}
	// An Append error means the PDU itself cannot be encoded (field
	// overflow); dropping it is indistinguishable from transport loss.
	_ = c.enc.Append(p)
}

func (f *wireFrames) Flush() {
	for i, c := range f.open {
		c.open = false
		f.seal(c, false)
		f.open[i] = nil
	}
	f.open = f.open[:0]
	f.sendStaged()
}

// seal closes c's in-progress frame, if non-empty, into the staged set,
// sending the set once it reaches wireBatchMax. Callers begin c's next
// frame afterwards if it is to stay open.
func (f *wireFrames) seal(c *sendChannel, early bool) {
	b := c.enc.Bytes()
	if c.enc.Count() == 0 {
		f.free = append(f.free, b)
		return
	}
	f.lm.Flush(c.enc.Count(), early)
	f.lm.FlushBytes(len(b), f.version)
	f.staged = append(f.staged, b)
	if len(f.staged) >= wireBatchMax {
		f.sendStaged()
	}
}

// sendStaged hands every sealed frame to the transport and returns the
// buffers to the free set. Loss and oversize are the transport's to
// count; the protocol repairs both via selective retransmission.
func (f *wireFrames) sendStaged() {
	switch {
	case len(f.staged) == 0:
		return
	case len(f.staged) == 1:
		_ = f.trans.Broadcast(f.staged[0])
	case f.bt != nil:
		_ = f.bt.BroadcastBatch(f.staged)
	default:
		for _, b := range f.staged {
			_ = f.trans.Broadcast(b)
		}
	}
	f.free = append(f.free, f.staged...)
	for i := range f.staged {
		f.staged[i] = nil
	}
	f.staged = f.staged[:0]
}

// Deliver decodes one arriving frame of group g and hands each PDU to fn
// in batch order, then recycles the datagram.
func (f *wireFrames) Deliver(g uint32, in groups.Inbound, fn func(p *pdu.PDU)) {
	c, ok := f.recv[g]
	if !ok {
		c = &recvChannel{}
		c.dec.SetStampDecoder(&c.stamps)
		f.recv[g] = c
	}
	// A decode error means a truncated or corrupt frame tail: PDUs
	// decoded before it stand, the rest are lost datagram content the
	// protocol recovers via RET. A delta entry whose reference stamp
	// this receiver never saw (pdu.ErrDeltaDesync) is the same thing one
	// level up — the reference was lost in transit — so the frame
	// remainder is dropped as loss too, repaired by retransmission or
	// the sender's next full-stamp sync point; it is counted separately
	// from genuinely invalid input.
	err := c.dec.Reset(in.Raw)
	if err == nil {
		f.lm.RecvBytes(len(in.Raw), c.dec.Version())
	}
	for err == nil {
		var more bool
		more, err = c.dec.Next(&f.scratch)
		if !more {
			break
		}
		// Sequenced PDUs are retained by the entity and must be cloned
		// out of scratch; control PDUs are only read during Receive.
		// Clone shares Delta, which aliases the stamp decoder's scratch
		// here, so the retained copy takes ownership via OwnDelta.
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

// wireGroup addresses one datagram from a Transport: the frame header's
// group, peeked without decoding the body. Headers too mangled to
// classify go to group 0, whose decoder rejects them as generic loss.
func wireGroup(b []byte) (uint32, groups.Inbound) {
	g, _ := pdu.FrameGroup(b)
	return g, groups.Inbound{Raw: b}
}

// memBatchMax bounds how many PDUs a memFrames stages per group before
// flushing early; it plays the role MaxDatagram plays for wire frames
// and keeps a long drain from growing a staging slice without bound.
const memBatchMax = 128

// memFrames is the groups.Frames over the in-memory network. PDUs move
// as pointers: Append stages them per group (the network clones and
// group-tags them at its boundary on flush) and Deliver's PDUs arrive
// already cloned and owned. Every owner loop of a node shares its port;
// BroadcastGroup is safe for concurrent use.
type memFrames struct {
	port *network.Port
	lm   *obsv.LinkMetrics // nil unless instrumented
	// order lists the groups staged since the last flush in first-append
	// order; a group whose batch flushed early is listed again, and its
	// emptied entry is skipped. Each staged slice is reused across
	// flushes so it grows once.
	order  []uint32
	staged map[uint32][]*pdu.PDU
}

func newMemFrames(port *network.Port, lm *obsv.LinkMetrics) *memFrames {
	return &memFrames{port: port, lm: lm, staged: make(map[uint32][]*pdu.PDU)}
}

func (f *memFrames) Append(g uint32, p *pdu.PDU) {
	batch := f.staged[g]
	if len(batch) == 0 {
		f.order = append(f.order, g)
	}
	batch = append(batch, p)
	if len(batch) >= memBatchMax {
		batch = f.broadcast(g, batch, true)
	}
	f.staged[g] = batch
}

func (f *memFrames) Flush() {
	for _, g := range f.order {
		if batch := f.staged[g]; len(batch) > 0 {
			f.staged[g] = f.broadcast(g, batch, false)
		}
	}
	f.order = f.order[:0]
}

// broadcast sends batch as one datagram per peer and returns it emptied
// for reuse, without the PDU references.
func (f *memFrames) broadcast(g uint32, batch []*pdu.PDU, early bool) []*pdu.PDU {
	f.lm.Flush(len(batch), early)
	_ = f.port.BroadcastGroup(g, batch...) // fails only on Close
	for i := range batch {
		batch[i] = nil
	}
	return batch[:0]
}

func (f *memFrames) Deliver(g uint32, in groups.Inbound, fn func(p *pdu.PDU)) {
	for _, p := range in.PDUs {
		fn(p)
	}
}

// memGroup addresses one datagram from the in-memory network by the
// group tag its sender's port attached.
func memGroup(in network.Inbound) (uint32, groups.Inbound) {
	return in.Group, groups.Inbound{PDUs: in.PDUs}
}
