package cobcast

import (
	"errors"

	"cobcast/internal/groups"
	"cobcast/internal/network"
	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
)

// link is the node's single attachment point to whatever moves PDUs —
// the layer that collapses the old port/trans duality. The loop
// goroutine owns the send side: it stages outgoing PDUs with append and
// coalesces them into one datagram per flush, which it calls whenever
// its input queue goes idle, so every PDU produced by one input burst
// rides together. A link must preserve per-sender datagram order, which
// with the frame ordering contract preserves per-sender PDU order within
// and across batches (the MC service contract).
//
// Ownership: append borrows the PDU pointer until the next flush; entity
// output PDUs are immutable after creation (the sendlog retransmits them
// bit-identically), so staging them is safe.
type link interface {
	// append stages p for the next flush. It may flush early to respect
	// substrate limits (datagram size, batch cap).
	append(p *pdu.PDU)
	// flush sends everything staged since the last flush as one
	// datagram per destination. Send failures are dropped datagrams —
	// indistinguishable from network loss, repaired by the protocol.
	flush()
	// close closes a transport the link owns.
	close() error
	// instrument attaches flush metrics. Must be called before the loop
	// goroutine starts using the link (node construction); nil detaches.
	instrument(m *obsv.LinkMetrics)
}

// inboxLink is a link together with its substrate's receive side, typed
// by what the substrate moves: T is one arriving datagram (decoded PDUs
// from the in-memory network, raw batch frames from a Transport). The
// node loop receives straight from the substrate's own channel, so each
// datagram crosses exactly one goroutine boundary on its way in.
type inboxLink[T any] interface {
	link
	// inbox is the substrate's own receive channel, one entry per
	// arriving datagram; it is closed when the substrate closes.
	inbox() <-chan T
	// receive routes one arriving datagram. Default-group traffic is
	// decoded and handed to fn PDU by PDU in batch order, under the
	// entity Receive contract: sequenced PDUs are owned by the callee,
	// unsequenced ones may be link scratch reused after fn returns.
	// Group-addressed traffic goes whole to toGroup, which takes
	// ownership. A datagram addressed to an out-of-range group is
	// dropped here, counted as unknown-group loss, resources released.
	receive(in T, fn func(p *pdu.PDU), toGroup func(g uint32, in groups.Inbound))
}

// memBatchMax bounds how many PDUs a memLink stages before flushing
// early; it plays the role MaxDatagram plays for wire links and keeps a
// long drain from growing the staging slice without bound.
const memBatchMax = 128

// memLink attaches a node to the in-memory network. PDUs move as
// pointers: append stages them (the network clones at its boundary on
// flush) and receive's PDUs arrive already cloned and owned.
type memLink struct {
	port  *network.Port
	batch []*pdu.PDU
	lm    *obsv.LinkMetrics // nil unless instrumented
}

func newMemLink(port *network.Port) *memLink {
	return &memLink{port: port, batch: make([]*pdu.PDU, 0, memBatchMax)}
}

func (l *memLink) append(p *pdu.PDU) {
	l.batch = append(l.batch, p)
	if len(l.batch) >= memBatchMax {
		l.flushBatch(true)
	}
}

func (l *memLink) flush() { l.flushBatch(false) }

func (l *memLink) flushBatch(early bool) {
	if len(l.batch) == 0 {
		return
	}
	l.lm.Flush(len(l.batch), early)
	_ = l.port.Broadcast(l.batch...) // fails only on Close
	for i := range l.batch {
		l.batch[i] = nil
	}
	l.batch = l.batch[:0]
}

func (l *memLink) instrument(m *obsv.LinkMetrics) { l.lm = m }

func (l *memLink) inbox() <-chan network.Inbound { return l.port.Recv() }

// receive passes through the network boundary's group tag; the
// in-memory network cannot produce out-of-range IDs, so nothing drops.
func (l *memLink) receive(in network.Inbound, fn func(p *pdu.PDU), toGroup func(uint32, groups.Inbound)) {
	if in.Group != 0 {
		toGroup(in.Group, groups.Inbound{PDUs: in.PDUs})
		return
	}
	for _, p := range in.PDUs {
		fn(p)
	}
}

// close is a no-op: the in-memory network belongs to the cluster.
func (l *memLink) close() error { return nil }

// wireBatchMax bounds how many sealed frames a wireLink stages before
// sending them mid-drain; it keeps one very long input burst from
// growing the staging buffers without bound while still letting the
// common burst ride down in a single BroadcastBatch call.
const wireBatchMax = 16

// wireLink attaches a node to a Transport. append marshals each PDU
// straight into an in-progress batch frame (sealing it into the staged
// set first if the PDU would push the frame past MaxDatagram), flush
// seals the last frame and hands the whole staged set to the transport —
// in one BroadcastBatch call when the transport implements
// BatchTransport (the UDP transport's sendmmsg path turns that into one
// syscall per flush), else one Broadcast per frame. deliver decodes
// arriving frames into a reused scratch PDU — so the whole encode/decode
// hot path is allocation-free in steady state, reusing a small set of
// grown frame buffers and the transport's datagram pool.
//
// The entry codec version is a send-side choice: reception accepts v1
// and v2 frames alike (the per-source stamp cache resolves v2 delta
// entries whatever this node emits), so a mixed-version cluster
// interoperates and the version can roll node by node.
type wireLink struct {
	trans Transport
	// bt is trans's batched-send extension, nil when unimplemented.
	bt      BatchTransport
	version uint8
	enc     pdu.FrameEncoder
	// stamps is the v2 reference-stamp state threaded through every
	// frame this link sends; nil for a v1 link.
	stamps *pdu.StampEncoder
	// bufs are the frame build buffers, retained across flushes so each
	// grows once: bufs[:nframes] hold sealed frames awaiting send,
	// bufs[nframes] is the in-progress frame the encoder writes into.
	// Only the loop goroutine touches them. Staged frames are sent in
	// seal order, preserving the per-sender PDU order across frames.
	bufs    [][]byte
	nframes int
	dec     pdu.FrameDecoder
	// sdec caches the last stamp decoded per source, mirroring each
	// sender's stream across frames (see pdu.StampDecoder).
	sdec    pdu.StampDecoder
	scratch pdu.PDU
	lm      *obsv.LinkMetrics // nil unless instrumented
}

// newWireLink attaches trans using entry codec version (pdu.WireVersion
// or pdu.WireVersion2). stampK is v2's full-stamp sync interval; <= 0
// selects pdu.DefaultStampInterval.
func newWireLink(trans Transport, version uint8, stampK int) *wireLink {
	l := &wireLink{
		trans:   trans,
		version: version,
		bufs:    [][]byte{make([]byte, 0, 4096)},
	}
	if bt, ok := trans.(BatchTransport); ok {
		l.bt = bt
	}
	if version == pdu.WireVersion2 {
		l.stamps = pdu.NewStampEncoder(stampK)
	}
	l.dec.SetStampDecoder(&l.sdec)
	l.begin()
	return l
}

// begin opens the next outgoing frame with the link's entry codec,
// writing into the first unsealed build buffer.
func (l *wireLink) begin() {
	if l.nframes == len(l.bufs) {
		l.bufs = append(l.bufs, make([]byte, 0, 4096))
	}
	buf := l.bufs[l.nframes][:0]
	if l.version == pdu.WireVersion2 {
		l.enc.BeginV2(buf, l.stamps)
	} else {
		l.enc.Begin(buf)
	}
}

// entryBound returns an upper bound on p's encoded size under the
// link's entry codec, for the early-flush datagram budget.
func (l *wireLink) entryBound(p *pdu.PDU) int {
	if l.version == pdu.WireVersion2 {
		return p.EncodedSizeV2Bound()
	}
	return p.EncodedSize()
}

func (l *wireLink) append(p *pdu.PDU) {
	if l.enc.Count() > 0 && l.enc.Size()+pdu.FrameEntrySize+l.entryBound(p) > MaxDatagram {
		l.seal(true)
		if l.nframes >= wireBatchMax {
			l.sendStaged()
		}
		l.begin()
	}
	// An Append error means the PDU itself cannot be encoded (field
	// overflow); dropping it is indistinguishable from transport loss.
	_ = l.enc.Append(p)
}

func (l *wireLink) flush() {
	l.seal(false)
	if l.nframes == 0 {
		return
	}
	l.sendStaged()
	l.begin()
}

// seal closes the in-progress frame, if non-empty, into the staged set.
// The encoder is left un-begun; callers begin() the next frame after
// any staged send so the build buffer index is stable.
func (l *wireLink) seal(early bool) {
	if l.enc.Count() == 0 {
		return
	}
	l.lm.Flush(l.enc.Count(), early)
	b := l.enc.Bytes()
	l.lm.FlushBytes(len(b), l.version)
	l.bufs[l.nframes] = b
	l.nframes++
}

// sendStaged hands every sealed frame to the transport and resets the
// staged set. Loss and oversize are the transport's to count; the
// protocol repairs both via selective retransmission.
func (l *wireLink) sendStaged() {
	switch {
	case l.nframes == 1:
		_ = l.trans.Broadcast(l.bufs[0])
	case l.bt != nil:
		_ = l.bt.BroadcastBatch(l.bufs[:l.nframes])
	default:
		for _, b := range l.bufs[:l.nframes] {
			_ = l.trans.Broadcast(b)
		}
	}
	l.nframes = 0
}

func (l *wireLink) instrument(m *obsv.LinkMetrics) { l.lm = m }

func (l *wireLink) inbox() <-chan []byte { return l.trans.Recv() }

// receive peeks the frame header's group address without decoding the
// body. v1/v2 frames and v3 frames addressed to group 0 stay on the
// node loop's decode path; a v3 group ID past pdu.MaxGroupID (a
// corrupted or hostile header) is dropped whole and counted as
// unknown-group loss. Headers too mangled to classify fall through to
// deliver, whose decoder rejects them as generic loss.
func (l *wireLink) receive(b []byte, fn func(p *pdu.PDU), toGroup func(uint32, groups.Inbound)) {
	g, ok := pdu.FrameGroup(b)
	switch {
	case ok && g > pdu.MaxGroupID:
		l.lm.UnknownGroup()
		pdu.PutDatagram(b)
	case ok && g != 0:
		toGroup(g, groups.Inbound{Raw: b})
	default:
		l.deliver(b, fn)
	}
}

// deliver decodes one default-group datagram and hands each PDU to fn
// in batch order, then recycles the datagram.
func (l *wireLink) deliver(raw []byte, fn func(p *pdu.PDU)) {
	// A decode error means a truncated or corrupt frame tail: PDUs
	// decoded before it stand, the rest are lost datagram content the
	// protocol recovers via RET. A delta entry whose reference stamp
	// this receiver never saw (pdu.ErrDeltaDesync) is the same thing one
	// level up — the reference was lost in transit — so the frame
	// remainder is dropped as loss too, repaired by retransmission or
	// the sender's next full-stamp sync point; it is counted separately
	// from genuinely invalid input.
	err := l.dec.Reset(raw)
	if err == nil {
		l.lm.RecvBytes(len(raw), l.dec.Version())
	}
	for err == nil {
		var ok bool
		ok, err = l.dec.Next(&l.scratch)
		if !ok {
			break
		}
		// Sequenced PDUs are retained by the entity and must be cloned
		// out of scratch; control PDUs are only read during Receive.
		// Clone shares Delta, which aliases the stamp decoder's scratch
		// here, so the retained copy takes ownership via OwnDelta.
		if l.scratch.Kind.Sequenced() {
			fn(l.scratch.Clone().OwnDelta())
		} else {
			fn(&l.scratch)
		}
	}
	if errors.Is(err, pdu.ErrDeltaDesync) {
		l.lm.StampDesync()
	}
	pdu.PutDatagram(raw)
}

func (l *wireLink) close() error { return l.trans.Close() }
