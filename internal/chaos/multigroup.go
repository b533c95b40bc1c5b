package chaos

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"cobcast/internal/core"
	"cobcast/internal/flight"
	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
	"cobcast/internal/sim"
	"cobcast/internal/trace"
	"cobcast/internal/workload"
)

// runMultiGroup is the Groups >= 2 chaos run: cfg.Groups independent
// ordered groups — each its own set of N engines with its own sequence
// space and its own trace — multiplexed over ONE simulated network
// carrying v3 group-addressed frames. The per-link loss rates, delays,
// bursts, partitions and pauses of the schedule hit every group's
// datagrams alike (the groups share the links), while ordering state
// never crosses groups: the codec keeps per-(channel, group) stamp
// caches exactly as the node runtime's per-group decode state does.
//
// Every safety and liveness predicate of the single-group run is
// checked per group, and each group's trace digest lands in
// Result.GroupDigests — the determinism witness multi-group tests pin.
func runMultiGroup(cfg Config, reg *obsv.Registry) (*Result, error) {
	groups := cfg.Groups
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := buildWorkload(cfg, rng)

	// Submission times as in the single-group run, plus a group draw per
	// message. The first min(groups, len) messages cover every group so
	// no per-group predicate is vacuous.
	type submission struct {
		at    time.Duration
		group int
		m     workload.Message
	}
	var subs []submission
	var at time.Duration
	for {
		m, ok := gen.Next()
		if !ok {
			break
		}
		at += m.Gap
		if cfg.MeanGapUS > 0 {
			at += time.Duration(rng.Intn(cfg.MeanGapUS+1)) * time.Microsecond
		}
		subs = append(subs, submission{at: at, m: m})
	}
	if len(subs) == 0 {
		return nil, fmt.Errorf("%w: workload produced no messages", ErrBadConfig)
	}
	perGroup := make([]int, groups)
	for i := range subs {
		g := rng.Intn(groups)
		if i < groups {
			g = i
		}
		subs[i].group = g
		perGroup[g]++
	}
	submitEnd := subs[len(subs)-1].at
	faultEnd := submitEnd + 10*time.Millisecond
	sched := deriveSchedule(cfg, rng, faultEnd)

	s := sim.New()
	burstLeft := make([]int, cfg.N)
	dropDatagram := func(from, to pdu.EntityID, _ int) bool {
		if s.Now() >= faultEnd {
			return false
		}
		if burstLeft[to] > 0 {
			burstLeft[to]--
			return true
		}
		if r := sched.lossRate[from][to]; r > 0 && rng.Float64() < r {
			return true
		}
		if cfg.BurstProb > 0 && rng.Float64() < cfg.BurstProb {
			burstLeft[to] = cfg.BurstLen - 1
			return true
		}
		return false
	}
	jitterUS := cfg.JitterUS
	delay := func(from, to pdu.EntityID, netRNG *rand.Rand) time.Duration {
		d := sched.baseDelay[from][to]
		if jitterUS > 0 {
			d += time.Duration(netRNG.Intn(jitterUS+1)) * time.Microsecond
		}
		return d
	}

	// The group codec: real v3 frames over the simulated links. One
	// stamp encoder per (sender, group) and one stamp decoder per
	// (receiver, sender, group) — each group is its own sequence space,
	// so a delta reference must never resolve across groups. The sim is
	// single-threaded, so the group of the datagram in flight rides two
	// side channels: sendGroup (set by dispatch just before Broadcast,
	// read by encode) and arriveGroup (set by decode, read by the
	// arrival handler in the same simulator event).
	ecodec := uint8(pdu.WireVersion)
	if cfg.WireVersion == 2 {
		ecodec = pdu.WireVersion2
	}
	encs := make([]pdu.FrameEncoder, cfg.N)
	stamps := make([][]*pdu.StampEncoder, cfg.N)
	for i := range stamps {
		stamps[i] = make([]*pdu.StampEncoder, groups)
		if ecodec == pdu.WireVersion2 {
			for g := range stamps[i] {
				stamps[i][g] = pdu.NewStampEncoder(0)
			}
		}
	}
	decs := make([][]pdu.FrameDecoder, cfg.N) // decs[to][from]
	sdecs := make([][][]pdu.StampDecoder, cfg.N)
	for to := range decs {
		decs[to] = make([]pdu.FrameDecoder, cfg.N)
		sdecs[to] = make([][]pdu.StampDecoder, cfg.N)
		for from := range sdecs[to] {
			sdecs[to][from] = make([]pdu.StampDecoder, groups)
		}
	}
	sendGroup := make([]int, cfg.N)
	arriveGroup := make([]int, cfg.N)
	encode := func(from pdu.EntityID, batch []*pdu.PDU) []byte {
		g := sendGroup[from]
		e := &encs[from]
		e.BeginGroup(nil, uint32(g), ecodec, stamps[from][g])
		for _, p := range batch {
			if err := e.Append(p); err != nil {
				panic(fmt.Sprintf("chaos: encode group %d from %d: %v", g, from, err))
			}
		}
		return e.Bytes()
	}
	decode := func(from, to pdu.EntityID, frame []byte) []*pdu.PDU {
		d := &decs[to][from]
		if err := d.Reset(frame); err != nil {
			panic(fmt.Sprintf("chaos: frame %d->%d: %v", from, to, err))
		}
		g := int(d.Group())
		d.SetStampDecoder(&sdecs[to][from][g])
		arriveGroup[to] = g
		var out []*pdu.PDU
		var p pdu.PDU
		for {
			ok, err := d.Next(&p)
			if err != nil {
				if errors.Is(err, pdu.ErrDeltaDesync) {
					// A delta whose reference this (channel, group) lost:
					// the datagram remainder drops as loss, repaired by
					// retransmission — same as a node's frames.
					return out
				}
				panic(fmt.Sprintf("chaos: decode %d->%d: %v", from, to, err))
			}
			if !ok {
				return out
			}
			// Delta aliases the stamp decoder's scratch; the clone owns
			// a copy because the PDU outlives the next decode.
			out = append(out, p.Clone().OwnDelta())
		}
	}

	net := sim.NewNet(s, cfg.N,
		sim.NetSeed(cfg.Seed),
		sim.NetDelay(delay),
		sim.NetDuplicateRate(cfg.Duplicate),
		sim.NetDatagramFilter(dropDatagram),
		sim.NetCodec(encode, decode),
	)

	// Engines and per-group recorders. The protocol configuration is
	// identical for every group, as in the node runtime: isolation comes
	// from frame routing, never from the entity configuration. stepMu
	// serializes virtual-time stepping against registry snapshot scrapes
	// (instrumentation never affects the run's determinism).
	var stepMu sync.Mutex
	ents := make([][]*core.Entity, groups)  // ents[g][i]
	rings := make([][]*flight.Ring, groups) // rings[g][i]
	recs := make([]*trace.Recorder, groups)
	delivered := make([][]int, groups) // delivered[g][i] = delivery count
	for g := 0; g < groups; g++ {
		recs[g] = &trace.Recorder{}
		ents[g] = make([]*core.Entity, cfg.N)
		rings[g] = make([]*flight.Ring, cfg.N)
		delivered[g] = make([]int, cfg.N)
		for i := 0; i < cfg.N; i++ {
			rings[g][i] = flight.NewRing(flight.DefaultEvents)
			ecfg := core.Config{
				ID:         pdu.EntityID(i),
				N:          cfg.N,
				TotalOrder: cfg.TotalOrder,
				DenseFold:  cfg.DenseFold,
				Tracer:     recs[g],
				Flight:     rings[g][i],
			}
			if reg != nil {
				ecfg.Metrics = obsv.NewEntityMetrics()
			}
			ent, err := core.New(ecfg)
			if err != nil {
				return nil, fmt.Errorf("chaos: group %d entity %d: %w", g, i, err)
			}
			ents[g][i] = ent
			if reg != nil {
				gid := uint32(g)
				reg.RegisterNode(strconv.Itoa(i)+"/g"+strconv.Itoa(g),
					ecfg.Metrics, nil, func() (obsv.StateSnapshot, bool) {
						stepMu.Lock()
						defer stepMu.Unlock()
						snap := ent.Snapshot()
						snap.Group = gid
						return snap, true
					})
			}
		}
	}

	dispatch := func(g int, id pdu.EntityID, out core.Output) {
		if len(out.PDUs) > 0 {
			sendGroup[id] = g
			net.Broadcast(id, out.PDUs...)
		}
		delivered[g][id] += len(out.Deliveries)
	}
	for i := 0; i < cfg.N; i++ {
		id := pdu.EntityID(i)
		net.Attach(id, func(from pdu.EntityID, p *pdu.PDU) {
			g := arriveGroup[id]
			out, err := ents[g][id].Receive(p, s.Now())
			if err != nil {
				panic(fmt.Sprintf("chaos: group %d entity %d receive: %v", g, id, err))
			}
			dispatch(g, id, out)
		})
	}
	tickEvery := core.DefaultDeferredAckInterval
	var scheduleTick func(g int, id pdu.EntityID)
	scheduleTick = func(g int, id pdu.EntityID) {
		s.After(tickEvery, func() {
			dispatch(g, id, ents[g][id].Tick(s.Now()))
			scheduleTick(g, id)
		})
	}
	for g := 0; g < groups; g++ {
		for i := 0; i < cfg.N; i++ {
			scheduleTick(g, pdu.EntityID(i))
		}
	}

	for _, sub := range subs {
		sub := sub
		s.At(sub.at, func() {
			out := ents[sub.group][sub.m.Sender].Submit(sub.m.Payload, s.Now())
			dispatch(sub.group, sub.m.Sender, out)
		})
	}
	for _, w := range sched.windows {
		w := w
		if w.partition != nil {
			s.At(w.start, func() { applyPartition(net, w.partition, true) })
			s.At(w.end, func() { applyPartition(net, w.partition, false) })
		} else {
			s.At(w.start, func() { net.Isolate(w.paused) })
			s.At(w.end, func() { net.Rejoin(w.paused) })
		}
	}

	res := &Result{Config: cfg, Submitted: len(subs), FaultEnd: faultEnd}
	allDone := func() bool {
		for g := 0; g < groups; g++ {
			for i := 0; i < cfg.N; i++ {
				if delivered[g][i] < perGroup[g] || !ents[g][i].Quiescent() {
					return false
				}
			}
		}
		return true
	}
	finish := func() error {
		res.VirtualElapsed = s.Now()
		res.PerEntity = make([]core.Stats, cfg.N)
		for g := 0; g < groups; g++ {
			for i, e := range ents[g] {
				st := e.Stats()
				addStats(&res.Stats, st)
				addStats(&res.PerEntity[i], st)
			}
		}
		res.Net = net.Stats()
		// The trace artifact concatenates the per-group traces (a debug
		// aid; checkers analyze each group separately). GroupDigests
		// holds each group's own digest; TraceDigest binds them all, so
		// it stays the one-line determinism witness.
		res.GroupDigests = make([]string, groups)
		sum := sha256.New()
		var buf bytes.Buffer
		for g := 0; g < groups; g++ {
			events := recs[g].Events()
			gd, err := trace.DigestEvents(events)
			if err != nil {
				return fmt.Errorf("chaos: digest group %d trace: %w", g, err)
			}
			res.GroupDigests[g] = gd
			sum.Write([]byte(gd))
			gs := trace.Summarize(events)
			res.Summary.Events += gs.Events
			res.Summary.DataSends += gs.DataSends
			res.Summary.SyncSends += gs.SyncSends
			res.Summary.Accepts += gs.Accepts
			res.Summary.Deliveries += gs.Deliveries
			res.Summary.Drops += gs.Drops
			res.Summary.Retransmits += gs.Retransmits
			_ = recs[g].WriteJSON(&buf)
		}
		res.TraceJSON = buf.Bytes()
		res.TraceDigest = hex.EncodeToString(sum.Sum(nil))
		// Flight dumps and stall verdicts for every engine, attributed
		// "i/gG" like the registry node names, so a failing seed's
		// artifact pinpoints the stuck (entity, group) pair.
		for g := 0; g < groups; g++ {
			for i, fr := range rings[g] {
				node := strconv.Itoa(i) + "/g" + strconv.Itoa(g)
				res.Flight = append(res.Flight, obsv.NodeFlight{
					Node:     node,
					Group:    uint32(g),
					Recorded: fr.Recorded(),
					Capacity: fr.Cap(),
					Events:   fr.Snapshot(nil),
				})
				for _, st := range ents[g][i].Stalls(s.Now(), 0) {
					st.Node = node
					res.Stalls = append(res.Stalls, st)
				}
			}
		}
		return nil
	}

	deadline := faultEnd + 3*time.Second
	done := false
	for s.Now() < deadline {
		stepMu.Lock()
		s.RunFor(tickEvery)
		done = allDone()
		stepMu.Unlock()
		if done {
			break
		}
	}
	if err := finish(); err != nil {
		return res, err
	}
	if !done {
		for g := 0; g < groups; g++ {
			for i := 0; i < cfg.N; i++ {
				if delivered[g][i] < perGroup[g] {
					return res, &Violation{
						Predicate: PredLivenessDelivered,
						Detail: fmt.Sprintf("deadline %v: group %d entity %d delivered %d/%d (stats %+v)",
							deadline, g, i, delivered[g][i], perGroup[g], ents[g][i].Stats()),
					}
				}
			}
		}
		return res, &Violation{
			Predicate: PredLivenessDelivered,
			Detail:    fmt.Sprintf("deadline %v: delivered but not quiescent", deadline),
		}
	}

	// Safety per group: the same checker battery as the single-group run,
	// over each group's own trace; then the data-drain liveness check.
	for g := 0; g < groups; g++ {
		an, err := trace.Analyze(recs[g].Events(), cfg.N)
		if err != nil {
			return res, fmt.Errorf("chaos: analyze group %d trace: %w", g, err)
		}
		gv := func(pred, detail string) *Violation {
			return &Violation{Predicate: pred, Detail: fmt.Sprintf("group %d: %s", g, detail)}
		}
		if err := an.CheckInformationPreserved(); err != nil {
			return res, gv(PredInformation, err.Error())
		}
		if err := an.CheckLocalOrderPreserved(); err != nil {
			return res, gv(PredLocalOrder, err.Error())
		}
		if err := an.CheckCausalOrderPreserved(); err != nil {
			return res, gv(PredCausalOrder, err.Error())
		}
		if cfg.TotalOrder {
			if err := an.CheckTotalOrderPreserved(); err != nil {
				return res, gv(PredTotalOrder, err.Error())
			}
		}
		if err := an.CheckCOService(); err != nil {
			return res, gv(PredCOService, err.Error())
		}
		for i, e := range ents[g] {
			d := e.Drain()
			switch {
			case d.DataResident != 0:
				return res, gv(PredLivenessDrain, fmt.Sprintf("entity %d quiesced with %d resident DATA PDUs", i, d.DataResident))
			case d.ParkedData != 0:
				return res, gv(PredLivenessDrain, fmt.Sprintf("entity %d quiesced with %d parked DATA PDUs", i, d.ParkedData))
			case d.PendingSubmits != 0:
				return res, gv(PredLivenessDrain, fmt.Sprintf("entity %d quiesced with %d flow-blocked submissions", i, d.PendingSubmits))
			case d.SendLogData != 0:
				return res, gv(PredLivenessDrain, fmt.Sprintf("entity %d quiesced with %d unconfirmed DATA in sendlog", i, d.SendLogData))
			case d.ReleasePending != 0:
				return res, gv(PredLivenessDrain, fmt.Sprintf("entity %d quiesced with %d PDUs held by TO release stage", i, d.ReleasePending))
			}
		}
	}
	return res, nil
}

// addStats accumulates src counters into dst (MaxResident by maximum),
// mirroring simrun's cluster-wide totals.
func addStats(dst *core.Stats, s core.Stats) {
	dst.DataSent += s.DataSent
	dst.SyncSent += s.SyncSent
	dst.AckOnlySent += s.AckOnlySent
	dst.RetSent += s.RetSent
	dst.DataRecv += s.DataRecv
	dst.SyncRecv += s.SyncRecv
	dst.AckOnlyRecv += s.AckOnlyRecv
	dst.RetRecv += s.RetRecv
	dst.Accepted += s.Accepted
	dst.Duplicates += s.Duplicates
	dst.Parked += s.Parked
	dst.F1Detections += s.F1Detections
	dst.F2Detections += s.F2Detections
	dst.Retransmitted += s.Retransmitted
	dst.Preacked += s.Preacked
	dst.Acked += s.Acked
	dst.Committed += s.Committed
	dst.Delivered += s.Delivered
	dst.CPIDisplaced += s.CPIDisplaced
	dst.CPIDisplacement += s.CPIDisplacement
	dst.DeferredConfirms += s.DeferredConfirms
	dst.FlowBlocked += s.FlowBlocked
	dst.InvalidPDUs += s.InvalidPDUs
	if s.MaxResident > dst.MaxResident {
		dst.MaxResident = s.MaxResident
	}
}
