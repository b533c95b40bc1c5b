package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cobcast"
	"cobcast/internal/flight"
	"cobcast/internal/pdu"
	"cobcast/obsv"
)

// captureFor is how long, from the traced phase's start, the taps keep
// copies of sent datagrams for the replay measurements. Capture starts
// at node creation, so every replay begins from a fresh entity.
const captureFor = time.Second

// tap wraps one node's UDPTransport in the traced run. It times every
// send call, counts datagrams and bytes, and keeps a copy of each
// datagram sent before the cluster's capture deadline. It implements
// cobcast.BatchTransport, so the node keeps the sendmmsg path.
type tap struct {
	inner *cobcast.UDPTransport
	node  int
	epoch time.Time
	// until is the capture deadline in ns on the cluster clock.
	until *atomic.Int64

	mu        sync.Mutex
	sendNs    []int64
	datagrams uint64
	bytes     uint64
	capt      []datagram
}

// datagram is one captured send.
type datagram struct {
	at   int64 // ns on the cluster clock when the send call began
	from int
	b    []byte
}

var _ cobcast.BatchTransport = (*tap)(nil)

func (t *tap) Broadcast(d []byte) error {
	t0 := time.Now()
	err := t.inner.Broadcast(d)
	t.note(t0, time.Since(t0), d)
	return err
}

func (t *tap) BroadcastBatch(ds [][]byte) error {
	t0 := time.Now()
	err := t.inner.BroadcastBatch(ds)
	t.note(t0, time.Since(t0), ds...)
	return err
}

func (t *tap) Recv() <-chan []byte { return t.inner.Recv() }
func (t *tap) Close() error        { return t.inner.Close() }

func (t *tap) note(t0 time.Time, took time.Duration, ds ...[]byte) {
	at := int64(t0.Sub(t.epoch))
	capture := at < t.until.Load()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sendNs = append(t.sendNs, int64(took))
	for _, d := range ds {
		t.datagrams++
		t.bytes += uint64(len(d))
		if capture {
			t.capt = append(t.capt, datagram{at: at, from: t.node, b: append([]byte(nil), d...)})
		}
	}
}

// wireTotals sums what the taps and transports counted.
type wireTotals struct {
	datagrams, bytes            uint64
	syscalls, overrun, sendErrs uint64
}

func (c *cluster) wireTotals() wireTotals {
	var w wireTotals
	for _, t := range c.taps {
		t.mu.Lock()
		w.datagrams += t.datagrams
		w.bytes += t.bytes
		t.mu.Unlock()
		s := t.inner.Stats()
		w.syscalls += s.SendmmsgCalls + s.RecvmmsgCalls
		w.overrun += s.Overrun
		w.sendErrs += s.SendErrors
	}
	return w
}

// protoStats sums the protocol counters of every engine carrying the
// workload's traffic.
func (c *cluster) protoStats() cobcast.Stats {
	var sum cobcast.Stats
	for _, row := range c.send {
		for _, gp := range row {
			s, ok := gp.Stats()
			if !ok {
				continue
			}
			sum = addStats(sum, s, 1)
		}
	}
	return sum
}

// addStats returns a + sign×b over the counters the benchmark reads.
func addStats(a, b cobcast.Stats, sign int) cobcast.Stats {
	f := func(x, y uint64) uint64 { return x + uint64(sign)*y }
	a.DataSent = f(a.DataSent, b.DataSent)
	a.SyncSent = f(a.SyncSent, b.SyncSent)
	a.AckOnlySent = f(a.AckOnlySent, b.AckOnlySent)
	a.RetSent = f(a.RetSent, b.RetSent)
	a.Retransmitted = f(a.Retransmitted, b.Retransmitted)
	a.DataRecv = f(a.DataRecv, b.DataRecv)
	a.SyncRecv = f(a.SyncRecv, b.SyncRecv)
	a.AckOnlyRecv = f(a.AckOnlyRecv, b.AckOnlyRecv)
	a.RetRecv = f(a.RetRecv, b.RetRecv)
	a.Duplicates = f(a.Duplicates, b.Duplicates)
	a.Parked = f(a.Parked, b.Parked)
	a.FlowBlocked = f(a.FlowBlocked, b.FlowBlocked)
	a.CPIDisplacement = f(a.CPIDisplacement, b.CPIDisplacement)
	a.Delivered = f(a.Delivered, b.Delivered)
	return a
}

func pdusSent(s cobcast.Stats) uint64 {
	return s.DataSent + s.SyncSent + s.AckOnlySent + s.RetSent + s.Retransmitted
}

func pdusRecv(s cobcast.Stats) uint64 {
	return s.DataRecv + s.SyncRecv + s.AckOnlyRecv + s.RetRecv
}

// runTraced is the traced run. An untraced cluster first carries the
// fixed-rate load (the CPU baseline for the tracing overhead and the
// remainder, and generator lateness) and a closed loop (CPU busy). A
// second cluster with observability, flight rings and transport taps
// then carries the same fixed-rate load; its flight rings, counters and
// captured datagrams give the per-layer metrics.
func runTraced(w workload, seed int64, dur time.Duration, rep *report) error {
	phaseDur := dur * 3 / 10
	if phaseDur > 3*time.Second {
		phaseDur = 3 * time.Second
	}

	c, _, err := build(w, seed, 0)
	if err != nil {
		return err
	}
	s0 := c.protoStats()
	ref := c.openLoop(w.rate, phaseDur)
	ds := addStats(c.protoStats(), s0, -1)
	busy := c.closedLoop(w.window, dur/5)
	c.close()
	if c.violation() != nil {
		c.finish(rep, ref.attempted+busy.attempted, ref.failed+busy.failed)
		return nil
	}

	events := ringEvents(w, ds, ref.elapsed, phaseDur)
	t, _, err := build(w, seed, events)
	if err != nil {
		return err
	}
	// Time only the phase's calls, not set-up's.
	t.bcast = nil
	for _, tp := range t.taps {
		tp.mu.Lock()
		tp.sendNs = nil
		tp.mu.Unlock()
	}
	winStart := t.clock()
	t.until.Store(winStart + int64(captureFor))
	s0, w0 := t.protoStats(), t.wireTotals()
	var n0 cobcast.NetworkStats
	if t.mem != nil {
		n0 = t.mem.NetworkStats()
	}
	traced := t.openLoop(w.rate, phaseDur)
	winEnd := t.clock()
	st := addStats(t.protoStats(), s0, -1)
	wt := t.wireTotals()
	var nst cobcast.NetworkStats
	if t.mem != nil {
		n1 := t.mem.NetworkStats()
		nst = cobcast.NetworkStats{DroppedLoss: n1.DroppedLoss - n0.DroppedLoss, DroppedOverrun: n1.DroppedOverrun - n0.DroppedOverrun}
	}
	tz := t.reg.Tracez()
	t.close()

	msgs := float64(traced.completed)
	perMsg := func(x uint64) float64 { return float64(x) / msgs }
	rep.add("bench.gen_late_ms", percentile(ref.late, 0.99)/1e6, "ms", fmt.Sprintf("p99 over %d ticks", len(ref.late)))
	rep.add("bench.cpu_busy_frac", busy.busyFrac(), "frac", fmt.Sprintf("closed loop, %.0f msg/s", busy.rate()))

	bc := sortedNs(t.bcast)
	rep.add("node.broadcast_ns_p50", percentile(bc, 0.5), "ns", fmt.Sprintf("n=%d", len(bc)))
	rep.add("node.broadcast_ns_p99", percentile(bc, 0.99), "ns", fmt.Sprintf("n=%d", len(bc)))

	stages, lost := t.stages(tz, winStart, winEnd)
	rep.add("flight.lost_events", float64(lost), "count", fmt.Sprintf("%d rings of %d events", len(tz.Nodes), events))
	consume := 0.0
	if len(stages.consume) > 0 {
		consume = percentile(stages.consume, 0.5) / 1e3
	}
	rep.add("node.consume_wait_us_p50", consume, "us", fmt.Sprintf("n=%d", len(stages.consume)))
	for _, s := range []struct {
		name string
		xs   []float64
	}{
		{"admit", stages.admit}, {"stage", stages.stage}, {"wire", stages.wire},
		{"accept", stages.accept}, {"commit", stages.commit}, {"deliver", stages.deliver},
	} {
		p50, p99 := 0.0, 0.0
		if len(s.xs) > 0 {
			p50, p99 = percentile(s.xs, 0.5)/1e3, percentile(s.xs, 0.99)/1e3
		}
		rep.add("stage."+s.name+"_us_p50", p50, "us", fmt.Sprintf("n=%d", len(s.xs)))
		rep.add("stage."+s.name+"_us_p99", p99, "us", fmt.Sprintf("n=%d", len(s.xs)))
	}

	sentPDUs, recvPDUs := pdusSent(st), pdusRecv(st)
	rep.add("core.ctrl_pdus_per_msg", float64(st.SyncSent+st.AckOnlySent)/float64(st.DataSent), "pdu/msg", fmt.Sprintf("%d data PDUs", st.DataSent))
	rep.add("core.ret_per_msg", perMsg(st.RetSent), "pdu/msg", fmt.Sprintf("%d msgs", traced.completed))
	rep.add("core.parked_per_msg", perMsg(st.Parked), "pdu/msg", "")
	rep.add("core.dup_per_msg", perMsg(st.Duplicates), "pdu/msg", "")
	rep.add("core.flow_blocked_frac", float64(st.FlowBlocked)/float64(st.DataSent), "frac", "")
	rep.add("msglog.cpi_displacement_per_msg", perMsg(st.CPIDisplacement), "entry/msg", "")
	rep.add("memnet.loss_per_msg", perMsg(nst.DroppedLoss), "pdu/msg", "")
	rep.add("memnet.overrun_per_msg", perMsg(nst.DroppedOverrun), "pdu/msg", "")

	wt = wireTotals{
		datagrams: wt.datagrams - w0.datagrams, bytes: wt.bytes - w0.bytes,
		syscalls: wt.syscalls - w0.syscalls, overrun: wt.overrun - w0.overrun, sendErrs: wt.sendErrs - w0.sendErrs,
	}
	var sendNs []int64
	for _, tp := range t.taps {
		sendNs = append(sendNs, tp.sendNs...)
	}
	sn := sortedNs(sendNs)
	pdusPerDatagram, sendUS := 0.0, 0.0
	if wt.datagrams > 0 {
		pdusPerDatagram = float64(sentPDUs) / float64(wt.datagrams)
		sendUS = percentile(sn, 0.5) / 1e3
	}
	rep.add("link.pdus_per_datagram", pdusPerDatagram, "pdu/datagram", fmt.Sprintf("%d PDUs, %d datagrams", sentPDUs, wt.datagrams))
	rep.add("link.datagrams_per_msg", perMsg(wt.datagrams), "datagram/msg", "")
	rep.add("link.bytes_per_msg", perMsg(wt.bytes), "B/msg", "")
	rep.add("udpnet.send_us_p50", sendUS, "us", fmt.Sprintf("n=%d send calls", len(sn)))
	rep.add("udpnet.syscalls_per_msg", perMsg(wt.syscalls), "syscall/msg", "sendmmsg + recvmmsg")
	rep.add("udpnet.overrun_per_msg", perMsg(wt.overrun), "datagram/msg", "")
	rep.add("udpnet.send_errors", float64(wt.sendErrs), "count", "")

	var rp replayResult
	if w.udp {
		rp, err = t.replay()
		if err != nil {
			return err
		}
	}
	rep.add("pdu.decode_ns_per_pdu", rp.decodeNs, "ns", fmt.Sprintf("%d PDUs replayed", rp.decodePDUs))
	rep.add("pdu.encode_ns_per_pdu", rp.encodeNs, "ns", fmt.Sprintf("%d PDUs replayed", rp.encodePDUs))
	rep.add("core.receive_ns_per_pdu", rp.coreNs, "ns", fmt.Sprintf("%d PDUs replayed into node %d", rp.corePDUs, w.replayNode))

	base, withTrace := ref.cpuPerMsgUS(), traced.cpuPerMsgUS()
	rep.add("flight.overhead_frac", (withTrace-base)/base, "frac", fmt.Sprintf("cpu %.2f us/msg traced, %.2f untraced", withTrace, base))
	explained := mean(t.bcast) +
		mean(sendNs)*perMsg(uint64(len(sendNs))) +
		rp.encodeNs*perMsg(sentPDUs) +
		(rp.decodeNs+rp.coreNs)*perMsg(recvPDUs)
	rep.add("budget.cpu_remainder_frac", (base*1e3-explained)/(base*1e3), "frac", fmt.Sprintf("%.0f of %.0f ns/msg explained by timed layers", explained, base*1e3))

	attempted := ref.attempted + busy.attempted + traced.attempted
	failed := ref.failed + busy.failed + traced.failed
	t.finish(rep, attempted, failed)
	return nil
}

// ringEvents sizes the flight rings so none wraps during the traced
// cluster's life: a generous bound on events per PDU handled, times
// the busiest engine's PDU rate in the reference phase, over the
// traced phase plus set-up and drain.
func ringEvents(w workload, ref cobcast.Stats, refDur, phaseDur time.Duration) int {
	engines := float64(w.n * w.nGroups())
	perSec := float64(pdusSent(ref)+pdusRecv(ref)) / engines / refDur.Seconds()
	const eventsPerPDU = 2
	need := eventsPerPDU * perSec * (phaseDur + w.drain + 2*time.Second).Seconds()
	return max(1<<12, int(need))
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

// stageSamples holds one duration sample (ns) per message and receiver
// for each lifecycle stage, taken from the flight rings.
type stageSamples struct {
	admit, stage, wire, accept, commit, deliver, consume []float64
}

type msgKey struct {
	src int32
	seq uint64
}

// msgTimes are one engine's first record of each lifecycle event of a
// data PDU, in ns on the cluster clock (0 = not recorded).
type msgTimes struct {
	seq, wout, win, acc, com, del int64
}

// ringView is one engine's flight ring, indexed by message.
type ringView struct {
	node, group int
	msgs        map[msgKey]*msgTimes
	submits     []int64 // own submits, in order
	ownSeqs     []msgKey
}

// stages decomposes submit→deliver from the flight rings for messages
// the traced phase sequenced in [from, to]: admit (submit→sequence) and
// stage (sequence→wire-out) at the sender, wire (sender wire-out→
// receiver wire-in), accept (wire-in→accept), commit (accept→commit)
// and deliver (commit→deliver) at each other receiver, and the
// consumer's wait from the deliver event to receiving the message.
// Group shard rings record no wire events; there stage and wire stay
// empty and accept runs from the sender's sequence event. It also
// returns the events lost to ring wrap-around.
func (c *cluster) stages(tz obsv.Tracez, from, to int64) (stageSamples, uint64) {
	var lost uint64
	views := map[[2]int]*ringView{}
	epoch := c.epoch.UnixNano()
	for _, nf := range tz.Nodes {
		if nf.Recorded > uint64(nf.Capacity) {
			lost += nf.Recorded - uint64(nf.Capacity)
		}
		node, gi, ok := c.parseLabel(nf.Node)
		if !ok {
			continue
		}
		v := &ringView{node: node, group: gi, msgs: map[msgKey]*msgTimes{}}
		views[[2]int{node, gi}] = v
		off := nf.EpochUnixNano - epoch
		for _, e := range nf.Events {
			if e.Kind != uint8(pdu.KindData) {
				continue
			}
			at := off + e.At
			if e.Type == flight.EvSubmit {
				v.submits = append(v.submits, at)
				continue
			}
			k := msgKey{e.Src, e.Seq}
			m := v.msgs[k]
			if m == nil {
				m = &msgTimes{}
				v.msgs[k] = m
			}
			var slot *int64
			switch e.Type {
			case flight.EvSequence:
				slot = &m.seq
				if int(e.Src) == node {
					v.ownSeqs = append(v.ownSeqs, k)
				}
			case flight.EvWireOut:
				slot = &m.wout
			case flight.EvWireIn:
				slot = &m.win
			case flight.EvAccept:
				slot = &m.acc
			case flight.EvCommit:
				slot = &m.com
			case flight.EvDeliver:
				slot = &m.del
			default:
				continue
			}
			if *slot == 0 {
				*slot = at
			}
		}
	}

	var s stageSamples
	add := func(dst *[]float64, a, b int64) {
		if a != 0 && b != 0 {
			*dst = append(*dst, float64(b-a))
		}
	}
	for key, v := range views {
		// Pair the i-th submit with the i-th own data sequence: the
		// engine sequences submissions in order and no ring wrapped.
		for i, k := range v.ownSeqs {
			m := v.msgs[k]
			if i >= len(v.submits) || m.seq < from || m.seq > to {
				continue
			}
			add(&s.admit, v.submits[i], m.seq)
			add(&s.stage, m.seq, m.wout)
			for r := range c.nodes {
				rv := views[[2]int{r, key[1]}]
				if r == v.node || rv == nil {
					continue
				}
				rm := rv.msgs[k]
				if rm == nil {
					continue
				}
				if rm.win != 0 {
					add(&s.wire, m.wout, rm.win)
					add(&s.accept, rm.win, rm.acc)
				} else {
					add(&s.accept, m.seq, rm.acc)
				}
				add(&s.commit, rm.acc, rm.com)
				add(&s.deliver, rm.com, rm.del)
			}
		}
	}
	for _, p := range c.ports {
		v := views[[2]int{p.node, p.group}]
		if v == nil {
			continue
		}
		for _, r := range p.recs {
			if m := v.msgs[msgKey{r.src, r.seq}]; m != nil && m.del != 0 && r.at >= from {
				s.consume = append(s.consume, float64(r.at-m.del))
			}
		}
	}
	for _, xs := range []*[]float64{&s.admit, &s.stage, &s.wire, &s.accept, &s.commit, &s.deliver, &s.consume} {
		sort.Float64s(*xs)
	}
	return s, lost
}

// parseLabel maps a flight ring label to (node, group index): "3" is
// node 3's default engine, "3/g5" its engine for GroupID 5. Rings of
// engines that carry no benchmark traffic are skipped.
func (c *cluster) parseLabel(label string) (node, gi int, ok bool) {
	ns, gs, grouped := strings.Cut(label, "/g")
	node, err := strconv.Atoi(ns)
	if err != nil || node < 0 || node >= c.w.n {
		return 0, 0, false
	}
	if !grouped {
		return node, 0, c.w.groups == 0
	}
	g, err := strconv.Atoi(gs)
	if err != nil || c.w.groups == 0 || g < 1 || g > c.w.groups {
		return 0, 0, false
	}
	return node, g - 1, true
}
