package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"cobcast"
	"cobcast/obsv"
)

// Payload layout: every benchmark message is 64 bytes, big-endian.
const (
	payloadSize = 64
	offDue      = 0  // int64: ns since the cluster epoch the message was due
	offIdx      = 8  // uint64: 1-based index in its (group, source) stream
	offSrc      = 16 // uint32: sending node
	offGroup    = 20 // uint32: group index
	offDepIdx   = 24 // uint64: index of the dependency (0 = none)
	offDepSrc   = 32 // uint32: source of the dependency
	offFlags    = 36 // uint32: flagTimed
	offFill     = 40 // filler derived from the index, checked on delivery

	flagTimed = 1
)

var be = binary.BigEndian

func fillByte(idx uint64, i int) byte { return byte(idx*7 + uint64(i)) }

// port is one (node, group) delivery stream and its consumer's state.
type port struct {
	_           [64]byte // keep consumers' hot fields off each other's cache lines
	node, group int
	gp          *cobcast.GroupPort
	// last[src] is the highest index delivered here from src's stream.
	last []atomic.Uint64
	// lastOther packs (src+1)<<48 | idx of the latest delivery from a
	// source other than this node: the dependency this node's next
	// message on the group names.
	lastOther atomic.Uint64

	mu      sync.Mutex
	samples []int64       // latency of each timed delivery, ns from due time
	recs    []deliveryRec // traced cluster only
}

// deliveryRec is one delivery as the consumer saw it, for matching
// against the node's flight "deliver" event.
type deliveryRec struct {
	src int32
	seq uint64
	at  int64
}

// cluster is one running instance of a workload plus the load
// generator's per-stream state.
type cluster struct {
	w     workload
	epoch time.Time
	nodes []*cobcast.Node
	mem   *cobcast.Cluster
	// reg is set on the traced cluster only; so are taps (UDP).
	taps []*tap
	reg  *obsv.Registry

	send    [][]*cobcast.GroupPort // [node][group]
	ports   []*port
	byGroup [][]*port // [group][node]
	wg      sync.WaitGroup

	waiting atomic.Bool
	wake    chan struct{}

	violations atomic.Int64
	vmu        sync.Mutex
	firstErr   string

	// Generator-owned state.
	rng     *rand.Rand
	sent    [][]uint64 // [group][src]
	nsent   uint64
	nextK   uint64
	errs    uint64
	buf     []byte
	submits []submitRec  // traced cluster: submits to the replay node
	until   atomic.Int64 // traced cluster: capture deadline, ns on the cluster clock
	bcast   []int64      // traced cluster: ns inside each Broadcast call
}

type submitRec struct {
	at   int64
	data []byte
}

func (c *cluster) clock() int64 { return int64(time.Since(c.epoch)) }

// build creates the workload's cluster, starts one consumer per port,
// and returns once every port has delivered the warm-up traffic (one
// message per group). The duration covers all of it. flightEvents > 0
// builds the traced cluster: a registry with flight rings of that
// capacity, for UDP every transport wrapped in a tap, and copies of
// every datagram sent and every submit to the replay node kept until
// cluster.until.
func build(w workload, seed int64, flightEvents int) (*cluster, time.Duration, error) {
	start := time.Now()
	c := &cluster{
		w:     w,
		epoch: start,
		wake:  make(chan struct{}, 1),
		rng:   rand.New(rand.NewSource(seed)),
		buf:   make([]byte, payloadSize),
	}
	var opts []cobcast.Option
	if flightEvents > 0 {
		c.reg = obsv.NewRegistry()
		c.until.Store(math.MaxInt64)
		opts = append(opts, cobcast.WithObservability(c.reg), cobcast.WithFlightRecorder(flightEvents))
	}
	var err error
	if w.udp {
		err = c.startUDP(opts)
	} else {
		err = c.startMem(seed, opts)
	}
	if err != nil {
		c.close()
		return nil, 0, err
	}
	g := w.nGroups()
	c.sent = make([][]uint64, g)
	c.send = make([][]*cobcast.GroupPort, w.n)
	c.byGroup = make([][]*port, g)
	for gi := range c.sent {
		c.sent[gi] = make([]uint64, w.senders)
	}
	for i, nd := range c.nodes {
		c.send[i] = make([]*cobcast.GroupPort, g)
		for gi := 0; gi < g; gi++ {
			gp := nd.Group(groupID(w, gi))
			c.send[i][gi] = gp
			p := &port{node: i, group: gi, gp: gp, last: make([]atomic.Uint64, w.n)}
			c.ports = append(c.ports, p)
			c.byGroup[gi] = append(c.byGroup[gi], p)
		}
	}
	for _, p := range c.ports {
		c.wg.Add(1)
		go c.consume(p)
	}
	for gi := 0; gi < g; gi++ {
		c.submit(gi, gi%w.senders, 0, false)
	}
	if !c.waitCompleted(c.nsent, time.Now().Add(10*time.Second)) {
		c.close()
		return nil, 0, fmt.Errorf("%s: warm-up not delivered everywhere within 10s", w.name)
	}
	return c, time.Since(start), nil
}

func groupID(w workload, gi int) cobcast.GroupID {
	if w.groups == 0 {
		return cobcast.DefaultGroup
	}
	return cobcast.GroupID(gi + 1)
}

// startUDP binds n loopback sockets on free ports and starts a node on
// each. On the traced cluster every transport is wrapped in a tap. Another
// process can take a probed port before its node binds it, so a failed
// start retries with fresh ports.
func (c *cluster) startUDP(opts []cobcast.Option) error {
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		if err = c.tryStartUDP(opts); err == nil {
			return nil
		}
		for _, nd := range c.nodes {
			_ = nd.Close() // abandoned attempt
		}
		c.nodes, c.taps = nil, nil
	}
	return err
}

// freePorts picks n distinct free loopback UDP ports by binding ":0"
// probes, all held until every port is known.
func freePorts(n int) ([]string, error) {
	var addrs []string
	var probes []*cobcast.UDPTransport
	var err error
	for len(probes) < n && err == nil {
		var p *cobcast.UDPTransport
		if p, err = cobcast.NewUDPTransport("127.0.0.1:0", []string{"127.0.0.1:1"}, 0); err == nil {
			probes = append(probes, p)
			addrs = append(addrs, p.LocalAddr())
		}
	}
	for _, p := range probes {
		_ = p.Close() // only the port numbers were wanted
	}
	if err != nil {
		return nil, fmt.Errorf("probe port: %w", err)
	}
	return addrs, nil
}

func (c *cluster) tryStartUDP(opts []cobcast.Option) error {
	n := c.w.n
	addrs, err := freePorts(n)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		peers := make([]string, 0, n-1)
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		ut, err := cobcast.NewUDPTransport(addrs[i], peers, 0)
		if err != nil {
			return fmt.Errorf("node %d transport: %w", i, err)
		}
		var trans cobcast.Transport = ut
		if c.reg != nil {
			t := &tap{inner: ut, node: i, epoch: c.epoch, until: &c.until}
			c.taps = append(c.taps, t)
			trans = t
		}
		nd, err := cobcast.NewNode(i, n, trans, opts...)
		if err != nil {
			_ = trans.Close() // NewNode failed, so the node does not own it
			return fmt.Errorf("node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, nd)
	}
	return nil
}

func (c *cluster) startMem(seed int64, opts []cobcast.Option) error {
	opts = append(opts, cobcast.WithLossRate(c.w.loss), cobcast.WithSeed(seed))
	mc, err := cobcast.NewCluster(c.w.n, opts...)
	if err != nil {
		return err
	}
	c.mem = mc
	for i := 0; i < c.w.n; i++ {
		c.nodes = append(c.nodes, mc.Node(i))
	}
	return nil
}

// close stops every node and waits for the consumers to finish.
func (c *cluster) close() {
	if c.mem != nil {
		_ = c.mem.Close() // teardown; delivery was already checked
	} else {
		for _, nd := range c.nodes {
			_ = nd.Close() // teardown; delivery was already checked
		}
	}
	c.wg.Wait()
}

// submit broadcasts the next message of the (gi, src) stream. due is
// the open-loop time it was due; timed asks consumers to record its
// latency.
func (c *cluster) submit(gi, src int, due int64, timed bool) {
	c.sent[gi][src]++
	idx := c.sent[gi][src]
	b := c.buf
	be.PutUint64(b[offDue:], uint64(due))
	be.PutUint64(b[offIdx:], idx)
	be.PutUint32(b[offSrc:], uint32(src))
	be.PutUint32(b[offGroup:], uint32(gi))
	var dsrc, didx uint64
	if dep := c.byGroup[gi][src].lastOther.Load(); dep != 0 {
		dsrc, didx = dep>>48-1, dep&(1<<48-1)
	}
	be.PutUint64(b[offDepIdx:], didx)
	be.PutUint32(b[offDepSrc:], uint32(dsrc))
	flags := uint32(0)
	if timed {
		flags = flagTimed
	}
	be.PutUint32(b[offFlags:], flags)
	for i := offFill; i < payloadSize; i++ {
		b[i] = fillByte(idx, i)
	}
	var err error
	if c.reg != nil {
		if src == c.w.replayNode && c.clock() < c.until.Load() {
			c.submits = append(c.submits, submitRec{at: c.clock(), data: append([]byte(nil), b...)})
		}
		t0 := time.Now()
		err = c.send[src][gi].Broadcast(b)
		c.bcast = append(c.bcast, int64(time.Since(t0)))
	} else {
		err = c.send[src][gi].Broadcast(b)
	}
	if err != nil {
		// Not sequenced: the stream index is reused by the next message.
		c.sent[gi][src]--
		c.errs++
		return
	}
	c.nsent++
}

// next submits open- or closed-loop message k: round-robin group,
// seeded sender.
func (c *cluster) next(due int64, timed bool) {
	gi := int(c.nextK % uint64(c.w.nGroups()))
	c.nextK++
	c.submit(gi, c.rng.Intn(c.w.senders), due, timed)
}

// consume is one port's application: it checks and times every
// delivery until the node closes the stream.
func (c *cluster) consume(p *port) {
	defer c.wg.Done()
	for m := range p.gp.Deliveries() {
		c.check(p, m, c.clock())
	}
}

func (c *cluster) check(p *port, m cobcast.Message, now int64) {
	d := m.Data
	if len(d) != payloadSize {
		c.violate("node %d group %d: payload of %d bytes", p.node, p.group, len(d))
		return
	}
	src := int(be.Uint32(d[offSrc:]))
	idx := be.Uint64(d[offIdx:])
	if src != m.Src || src >= c.w.n || int(be.Uint32(d[offGroup:])) != p.group {
		c.violate("node %d group %d: message from %d claims source %d group %d", p.node, p.group, m.Src, src, be.Uint32(d[offGroup:]))
		return
	}
	for i := offFill; i < payloadSize; i++ {
		if d[i] != fillByte(idx, i) {
			c.violate("node %d group %d: corrupt payload %d#%d", p.node, p.group, src, idx)
			return
		}
	}
	prev := p.last[src].Load()
	if idx != prev+1 {
		c.violate("node %d group %d: source %d index %d delivered after %d (exactly-once / FIFO)", p.node, p.group, src, idx, prev)
	}
	if didx := be.Uint64(d[offDepIdx:]); didx > 0 {
		dsrc := int(be.Uint32(d[offDepSrc:]))
		if dsrc >= c.w.n || p.last[dsrc].Load() < didx {
			c.violate("node %d group %d: %d#%d delivered before its dependency %d#%d (causality)", p.node, p.group, src, idx, dsrc, didx)
		}
	}
	p.mu.Lock()
	if be.Uint32(d[offFlags:])&flagTimed != 0 {
		due := int64(be.Uint64(d[offDue:]))
		p.samples = append(p.samples, now-due)
	}
	if c.reg != nil {
		p.recs = append(p.recs, deliveryRec{src: int32(m.Src), seq: m.Seq, at: now})
	}
	p.mu.Unlock()
	if idx > prev {
		p.last[src].Store(idx)
	}
	if src != p.node {
		p.lastOther.Store(uint64(src+1)<<48 | idx)
	}
	if c.waiting.Load() && c.waiting.CompareAndSwap(true, false) {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

func (c *cluster) violate(format string, args ...any) {
	if c.violations.Add(1) == 1 {
		c.vmu.Lock()
		c.firstErr = fmt.Sprintf(format, args...)
		c.vmu.Unlock()
	}
}

// violation returns the first correctness violation seen, if any.
func (c *cluster) violation() error {
	n := c.violations.Load()
	if n == 0 {
		return nil
	}
	c.vmu.Lock()
	defer c.vmu.Unlock()
	return fmt.Errorf("%d delivery violations; first: %s", n, c.firstErr)
}

// completed counts messages delivered at every port of their group:
// per stream, the minimum index delivered across the group's ports
// (streams are FIFO and exactly-once, so that prefix is complete).
func (c *cluster) completed() uint64 {
	var sum uint64
	for _, ps := range c.byGroup {
		for src := 0; src < c.w.senders; src++ {
			m := ps[0].last[src].Load()
			for _, p := range ps[1:] {
				if v := p.last[src].Load(); v < m {
					m = v
				}
			}
			sum += m
		}
	}
	return sum
}

// waitCompleted blocks until completed() reaches target or the deadline
// passes, reporting which.
func (c *cluster) waitCompleted(target uint64, deadline time.Time) bool {
	poll := time.NewTicker(2 * time.Millisecond)
	defer poll.Stop()
	for {
		if c.completed() >= target {
			return true
		}
		c.waiting.Store(true)
		if c.completed() >= target {
			c.waiting.Store(false)
			return true
		}
		if time.Now().After(deadline) {
			c.waiting.Store(false)
			return false
		}
		select {
		case <-c.wake:
		case <-poll.C:
		}
	}
}

// takeSamples returns and releases every port's latency samples.
func (c *cluster) takeSamples() []int64 {
	var all []int64
	for _, p := range c.ports {
		p.mu.Lock()
		all = append(all, p.samples...)
		p.samples = nil
		p.mu.Unlock()
	}
	return all
}

// finish records the run's verdict: attempted and failed counts, and
// correctness from every consumer's checks.
func (c *cluster) finish(rep *report, attempted, failed uint64) {
	rep.res.Attempted = attempted
	rep.res.Failed = failed
	if err := c.violation(); err != nil {
		rep.res.Correct = false
		rep.notes = append(rep.notes, "# INCORRECT: "+err.Error())
	}
}
