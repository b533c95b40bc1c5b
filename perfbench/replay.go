package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"cobcast/internal/core"
	"cobcast/internal/pdu"
)

// Replays time the codec and the protocol engine on traffic the traced
// cluster really sent, calling the layers' public functions directly:
// each is repeated until minReplay of timed work has accumulated (at
// least minPasses times), and only the calls themselves are timed.
const (
	minReplay = 300 * time.Millisecond
	minPasses = 2
	maxPasses = 50
)

type replayResult struct {
	decodeNs, encodeNs, coreNs       float64
	decodePDUs, encodePDUs, corePDUs int
}

// replay runs the three replays over the captured datagrams: the replay
// node's inbound stream (every other node's sends, in send order)
// through FrameDecoder and then into a fresh core entity together with
// the node's own submits and timer ticks, and every node's outbound
// stream through FrameEncoder.
func (c *cluster) replay() (replayResult, error) {
	var rr replayResult
	cut := c.until.Load()
	r := c.w.replayNode
	var all, inbound []datagram
	for _, t := range c.taps {
		all = append(all, t.capt...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
	for _, d := range all {
		if d.from != r && d.at < cut {
			inbound = append(inbound, d)
		}
	}

	var err error
	if rr.decodeNs, rr.decodePDUs, err = timeDecode(inbound); err != nil {
		return rr, err
	}
	if rr.encodeNs, rr.encodePDUs, err = c.timeEncode(); err != nil {
		return rr, err
	}
	if rr.coreNs, rr.corePDUs, err = c.timeCore(inbound, cut); err != nil {
		return rr, err
	}
	return rr, nil
}

// decodeAll decodes a datagram stream with one receiver's decoder state
// and returns owned copies of its PDUs, one slice per datagram.
func decodeAll(dgs []datagram) ([][]*pdu.PDU, error) {
	var dec pdu.FrameDecoder
	var sd pdu.StampDecoder
	dec.SetStampDecoder(&sd)
	var scratch pdu.PDU
	out := make([][]*pdu.PDU, len(dgs))
	for i, d := range dgs {
		if err := dec.Reset(d.b); err != nil {
			return nil, fmt.Errorf("captured datagram from node %d: %w", d.from, err)
		}
		for {
			ok, err := dec.Next(&scratch)
			if err != nil {
				return nil, fmt.Errorf("captured datagram from node %d: %w", d.from, err)
			}
			if !ok {
				break
			}
			out[i] = append(out[i], scratch.Clone().OwnDelta())
		}
	}
	return out, nil
}

// timeDecode times FrameDecoder.Reset/Next over the stream, with fresh
// per-source stamp state each pass, and returns ns per PDU and the PDUs
// in one pass.
func timeDecode(dgs []datagram) (float64, int, error) {
	if _, err := decodeAll(dgs); err != nil {
		return 0, 0, err
	}
	var dec pdu.FrameDecoder
	var sd pdu.StampDecoder
	dec.SetStampDecoder(&sd)
	var p pdu.PDU
	var took time.Duration
	n, passes := 0, 0
	for ; passes < maxPasses && (passes < minPasses || took < minReplay); passes++ {
		sd.Reset()
		t0 := time.Now()
		for _, d := range dgs {
			_ = dec.Reset(d.b) // decodeAll accepted every datagram
			for {
				ok, _ := dec.Next(&p)
				if !ok {
					break
				}
				n++
			}
		}
		took += time.Since(t0)
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("decode replay: no PDUs captured")
	}
	return float64(took) / float64(n), n / passes, nil
}

// timeEncode re-encodes every node's captured frames with FrameEncoder
// and a fresh v2 StampEncoder per node and pass, and checks that the
// bytes match what the node sent.
func (c *cluster) timeEncode() (float64, int, error) {
	type stream struct {
		sent   []datagram
		frames [][]*pdu.PDU
		st     *pdu.StampEncoder
	}
	var streams []stream
	for _, t := range c.taps {
		frames, err := decodeAll(t.capt)
		if err != nil {
			return 0, 0, err
		}
		streams = append(streams, stream{sent: t.capt, frames: frames, st: pdu.NewStampEncoder(0)})
	}
	var enc pdu.FrameEncoder
	buf := make([]byte, 0, pdu.DatagramBufCap)
	var took time.Duration
	n, passes := 0, 0
	for ; passes < maxPasses && (passes < minPasses || took < minReplay); passes++ {
		for _, s := range streams {
			s.st.Reset()
			for i, f := range s.frames {
				t0 := time.Now()
				enc.BeginV2(buf[:0], s.st)
				for _, p := range f {
					if err := enc.Append(p); err != nil {
						return 0, 0, fmt.Errorf("encode replay: %w", err)
					}
				}
				out := enc.Bytes()
				took += time.Since(t0)
				n += len(f)
				if passes == 0 && !bytes.Equal(out, s.sent[i].b) {
					return 0, 0, fmt.Errorf("encode replay: node %d frame %d re-encodes to different bytes", s.sent[i].from, i)
				}
			}
		}
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("encode replay: no PDUs captured")
	}
	return float64(took) / float64(n), n / passes, nil
}

// timeCore replays the replay node's inbound PDUs into a fresh engine
// with the node's configuration (library defaults), interleaved by time
// with the node's own submits and its timer ticks, timing only Receive.
func (c *cluster) timeCore(inbound []datagram, cut int64) (float64, int, error) {
	frames, err := decodeAll(inbound)
	if err != nil {
		return 0, 0, err
	}
	r := c.w.replayNode
	var subs []submitRec
	for _, s := range c.submits {
		if s.at < cut {
			subs = append(subs, s)
		}
	}
	var took time.Duration
	n, passes := 0, 0
	for ; passes < maxPasses && (passes < minPasses || took < minReplay); passes++ {
		ent, err := core.New(core.Config{ID: pdu.EntityID(r), N: c.w.n})
		if err != nil {
			return 0, 0, err
		}
		tickEvery := int64(core.DefaultDeferredAckInterval)
		nextTick, si := tickEvery, 0
		for i, f := range frames {
			at := inbound[i].at
			for {
				switch {
				case si < len(subs) && subs[si].at <= at && subs[si].at <= nextTick:
					ent.Submit(subs[si].data, time.Duration(subs[si].at))
					si++
					continue
				case nextTick <= at:
					ent.Tick(time.Duration(nextTick))
					nextTick += tickEvery
					continue
				}
				break
			}
			for _, p := range f {
				q := p.Clone().OwnDelta() // the engine keeps sequenced PDUs
				t0 := time.Now()
				_, err := ent.Receive(q, time.Duration(at))
				took += time.Since(t0)
				if err != nil {
					return 0, 0, fmt.Errorf("core replay: %w", err)
				}
				n++
			}
		}
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("core replay: no PDUs captured")
	}
	return float64(took) / float64(n), n / passes, nil
}
