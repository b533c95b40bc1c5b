// Package groups is the multi-group sharded runtime: it multiplexes many
// independent causally/totally ordered groups — each its own core.Entity
// with its own sequence space, message log and ready queues — over one
// shared transport.
//
// The paper's engine is single-writer by construction: every input to an
// entity must be serialized on one goroutine. Instead of one goroutine
// per group (unbounded) or one for all groups (no parallelism), the
// registry hash-assigns each group to one of a fixed, GOMAXPROCS-sized
// set of shards. Each shard is one goroutine owning every engine mapped
// to it, which preserves the single-writer invariant per group while
// letting independent groups progress in parallel across shards.
//
// Engines are lazy: the first send or receive naming a group
// instantiates it, up to MaxGroups; past the bound (or after close)
// inbound frames are dropped and counted as unknown-group loss — the
// protocol treats that exactly like transport loss, so a late joiner or
// a confused peer can never crash the runtime.
//
// Each shard also owns a Frames adapter — the link-layer seam supplied
// by the embedding runtime, which gives its own loop another instance
// for the default group — and flushes it once per input burst
// (flush-on-loop-idle, as the node loop does), so PDUs from many groups
// coalesce into the same staged-batch/sendmmsg path.
package groups

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"cobcast/internal/core"
	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
)

// DefaultMaxGroups bounds lazily instantiated engines when Config leaves
// MaxGroups unset. Each engine costs O(n) state plus its logs, so the
// bound is a safety valve against a peer (or a fuzzer) minting fresh
// group IDs forever, not a sizing recommendation.
const DefaultMaxGroups = 1024

// ErrClosed is returned by operations on a closed registry.
var ErrClosed = errors.New("groups: closed")

// ErrTooManyGroups is returned when opening a group would exceed the
// MaxGroups bound.
var ErrTooManyGroups = errors.New("groups: too many groups")

// Inbound is one received wire unit addressed to a group, in exactly one
// representation: Raw for substrates that move encoded v3 frames, PDUs
// for substrates that move decoded PDU pointers (the in-memory network).
// The shard's Frames adapter interprets its own inbounds.
type Inbound struct {
	Raw  []byte
	PDUs []*pdu.PDU
}

// Frames is an owner loop's attachment to the wire. One Frames exists
// per owner loop — each shard, and the embedding node's own loop, which
// carries the default group as group 0 — and is used only from that
// loop's goroutine, so implementations need no locking of their own
// (the transport underneath must accept concurrent sends, as the UDP
// transport does).
//
// Append stages p on group g's in-progress frame for the next Flush;
// Flush sends every frame staged since the last one; Deliver decodes
// one inbound for group g and hands each PDU to fn in order under the
// entity Receive contract (sequenced PDUs owned by the callee,
// unsequenced ones may be scratch), then releases the inbound's
// resources.
type Frames interface {
	Append(g uint32, p *pdu.PDU)
	Flush()
	Deliver(g uint32, in Inbound, fn func(p *pdu.PDU))
}

// Config assembles a Registry. NewEntity, NewFrames and Deliver are the
// seams to the embedding runtime and must all be set.
type Config struct {
	// Shards is the number of owner goroutines; <= 0 derives it from
	// GOMAXPROCS (capped at 8: shards beyond the parallelism actually
	// available only add channels).
	Shards int
	// MaxGroups bounds lazily instantiated engines; <= 0 selects
	// DefaultMaxGroups.
	MaxGroups int
	// NewEntity builds group g's protocol engine (including any metrics
	// wiring). It runs on the owning shard goroutine.
	NewEntity func(g uint32) (*core.Entity, error)
	// NewFrames builds one shard's wire adapter; it is owned by that
	// shard's goroutine for the registry's lifetime.
	NewFrames func() Frames
	// Deliver receives group g's causally ordered deliveries, on the
	// owning shard goroutine; it must hand off quickly (the embedding
	// runtime queues to its consumers).
	Deliver func(g uint32, d core.Delivery)
	// DroppedUnknown, if set, is called once per inbound dropped for an
	// unknown-group reason (over the MaxGroups bound, failed engine
	// construction, closed registry).
	DroppedUnknown func()
	// Tick is the per-shard protocol tick interval driving timeouts and
	// deferred ACKs for every engine the shard owns.
	Tick time.Duration
	// Now is the shared protocol clock (time since the node started).
	Now func() time.Duration
}

// Registry is the multi-group runtime: the lazy group table plus the
// shard goroutines that own the engines. All methods are safe for
// concurrent use.
type Registry struct {
	cfg    Config
	shards []*shard

	mu     sync.Mutex
	known  map[uint32]struct{}
	closed bool
}

// New starts a registry with its shard goroutines. The configuration's
// NewEntity, NewFrames, Deliver and Now must be non-nil.
func New(cfg Config) (*Registry, error) {
	if cfg.NewEntity == nil || cfg.NewFrames == nil || cfg.Deliver == nil || cfg.Now == nil {
		return nil, errors.New("groups: incomplete config")
	}
	if cfg.Shards <= 0 {
		// One shard goroutine per schedulable CPU. The heuristic is
		// capped at GOMAXPROCS(0), not a fixed constant: shards run
		// mailbox loops that park when idle, so extra shards on a big
		// machine cost nothing while letting group traffic spread across
		// every core the scheduler can actually use. An explicit
		// cfg.Shards always wins.
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxGroups <= 0 {
		cfg.MaxGroups = DefaultMaxGroups
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 5 * time.Millisecond
	}
	r := &Registry{
		cfg:   cfg,
		known: make(map[uint32]struct{}),
	}
	r.shards = make([]*shard, cfg.Shards)
	for i := range r.shards {
		s := &shard{
			reg:    r,
			in:     make(chan shardMsg, shardInboxCap),
			groups: make(map[uint32]*core.Entity),
			frames: cfg.NewFrames(),
			stop:   make(chan struct{}),
			done:   make(chan struct{}),
		}
		r.shards[i] = s
		go s.loop()
	}
	return r, nil
}

// shardOf hash-assigns group g to its owner shard. Fibonacci hashing
// spreads the sequential and the name-hashed ID populations alike.
func (r *Registry) shardOf(g uint32) *shard {
	h := g * 0x9E3779B1
	return r.shards[h%uint32(len(r.shards))]
}

// Shards reports the number of shard goroutines.
func (r *Registry) Shards() int { return len(r.shards) }

// open reserves g in the group table, enforcing the MaxGroups bound.
func (r *Registry) open(g uint32) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if _, ok := r.known[g]; ok {
		return nil
	}
	if len(r.known) >= r.cfg.MaxGroups {
		return fmt.Errorf("%w: %d", ErrTooManyGroups, r.cfg.MaxGroups)
	}
	r.known[g] = struct{}{}
	return nil
}

// Open makes g known (reserving a MaxGroups slot) without yet building
// its engine; the owning shard instantiates lazily on first input.
// Opening an already-known group is a no-op.
func (r *Registry) Open(g uint32) error { return r.open(g) }

// Submit broadcasts data on group g, instantiating the group if needed.
// data is retained by the engine (callers pass an owned copy). It blocks
// only while the owning shard's inbox is full (backpressure).
func (r *Registry) Submit(g uint32, data []byte) error {
	if err := r.open(g); err != nil {
		return err
	}
	return r.shardOf(g).send(shardMsg{kind: msgSubmit, group: g, data: data})
}

// Inbound routes one received wire unit to group g's owner shard,
// instantiating the group on first receive. Frames for groups past the
// MaxGroups bound — or arriving after close — are dropped and counted
// via DroppedUnknown: unknown-group loss, repaired (or not) like any
// other transport loss, never a crash.
func (r *Registry) Inbound(g uint32, in Inbound) {
	if err := r.open(g); err != nil {
		r.dropUnknown(in)
		return
	}
	if err := r.shardOf(g).send(shardMsg{kind: msgInbound, group: g, in: in}); err != nil {
		r.dropUnknown(in)
	}
}

func (r *Registry) dropUnknown(in Inbound) {
	if in.Raw != nil {
		pdu.PutDatagram(in.Raw)
	}
	if r.cfg.DroppedUnknown != nil {
		r.cfg.DroppedUnknown()
	}
}

// Groups snapshots the known group IDs (reserved or instantiated), in
// arbitrary order.
func (r *Registry) Groups() []uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]uint32, 0, len(r.known))
	for g := range r.known {
		out = append(out, g)
	}
	return out
}

// GroupCount reports how many groups are known.
func (r *Registry) GroupCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.known)
}

// statsTimeout bounds how long introspection waits for a busy shard; a
// scrape that misses simply reports absence rather than stalling.
const statsTimeout = 100 * time.Millisecond

// Stats returns group g's protocol counters, or ok=false if the group
// has no engine (never instantiated) or its shard stayed busy past an
// internal timeout.
func (r *Registry) Stats(g uint32) (core.Stats, bool) {
	reply := make(chan statsReply, 1)
	if !r.shardOf(g).request(shardMsg{kind: msgStats, group: g, statsC: reply}) {
		return core.Stats{}, false
	}
	rep := <-reply
	return rep.stats, rep.ok
}

// SnapshotInto fills dst with group g's live protocol state, taken
// between inputs on the owning shard. ok=false as for Stats; on false
// dst is untouched.
func (r *Registry) SnapshotInto(g uint32, dst *obsv.StateSnapshot) bool {
	reply := make(chan bool, 1)
	if !r.shardOf(g).request(shardMsg{kind: msgSnap, group: g, snap: dst, okC: reply}) {
		return false
	}
	return <-reply
}

// Stalls fills dst with group g's stall-analyzer verdicts, taken
// between inputs on the owning shard. ok=false as for Stats; on false
// dst is untouched.
func (r *Registry) Stalls(g uint32, dst *[]obsv.Stall) bool {
	reply := make(chan bool, 1)
	if !r.shardOf(g).request(shardMsg{kind: msgStalls, group: g, stalls: dst, okC: reply}) {
		return false
	}
	return <-reply
}

// Quiescent reports whether every instantiated engine on every shard
// owes the cluster nothing. It blocks until each shard answers between
// inputs (or returns false if the registry is closing).
func (r *Registry) Quiescent() bool {
	for _, s := range r.shards {
		reply := make(chan bool, 1)
		if err := s.send(shardMsg{kind: msgQuiescent, okC: reply}); err != nil {
			return false
		}
		select {
		case q := <-reply:
			if !q {
				return false
			}
		case <-s.done:
			return false
		}
	}
	return true
}

// Close stops every shard goroutine. Pending inputs may be dropped —
// indistinguishable from loss. It is idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	for _, s := range r.shards {
		close(s.stop)
	}
	for _, s := range r.shards {
		<-s.done
	}
}

// shardInboxCap is each shard's input queue depth. Full inboxes apply
// backpressure to submitters and to the inbound router, the node loop
// (which in turn stops reading the transport — the receive socket
// buffer absorbs bursts).
const shardInboxCap = 256

const (
	msgSubmit = iota
	msgInbound
	msgStats
	msgSnap
	msgStalls
	msgQuiescent
)

type statsReply struct {
	stats core.Stats
	ok    bool
}

type shardMsg struct {
	kind   int
	group  uint32
	data   []byte
	in     Inbound
	statsC chan statsReply
	snap   *obsv.StateSnapshot
	stalls *[]obsv.Stall
	okC    chan bool
}

// shard is one owner goroutine and the engines hash-assigned to it.
// Only the shard goroutine touches groups, its engines or its Frames —
// the single-writer invariant, per group, by construction.
type shard struct {
	reg *Registry
	in  chan shardMsg
	// groups maps group ID -> engine; a nil engine is a tombstone for a
	// group whose construction failed (inputs drop as unknown-group loss
	// instead of retrying construction per datagram).
	groups map[uint32]*core.Entity
	frames Frames
	stop   chan struct{}
	done   chan struct{}
}

// send enqueues m, blocking while the inbox is full; it fails only once
// the registry is closing. The common case — room in the inbox — takes
// a single-case non-blocking send before falling back to the blocking
// select.
func (s *shard) send(m shardMsg) error {
	select {
	case <-s.stop:
		return ErrClosed
	default:
	}
	select {
	case s.in <- m:
		return nil
	default:
	}
	select {
	case s.in <- m:
		return nil
	case <-s.stop:
		return ErrClosed
	case <-s.done:
		return ErrClosed
	}
}

// request enqueues an introspection message, giving up after
// statsTimeout instead of blocking a scraper behind a busy shard.
func (s *shard) request(m shardMsg) bool {
	timer := time.NewTimer(statsTimeout)
	defer timer.Stop()
	select {
	case s.in <- m:
		return true
	case <-s.stop:
		return false
	case <-s.done:
		return false
	case <-timer.C:
		return false
	}
}

// loop is the shard's owner goroutine: block for one input, drain
// whatever else is pending without blocking, then flush — so the PDUs
// every engine produced for one burst ride out together, across groups,
// in one staged-batch send. The drain polls each input once per pass
// with a single-case non-blocking receive (lock-free when empty), as the
// node loop does, until a pass finds nothing.
func (s *shard) loop() {
	defer close(s.done)
	ticker := time.NewTicker(s.reg.cfg.Tick)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			s.drainOnStop()
			return
		case m := <-s.in:
			s.handle(m)
		case <-ticker.C:
			s.tickAll()
		}
		for more := true; more; {
			more = false
			select {
			case <-s.stop:
				s.drainOnStop()
				return
			default:
			}
			select {
			case m := <-s.in:
				s.handle(m)
				more = true
			default:
			}
			select {
			case <-ticker.C:
				s.tickAll()
				more = true
			default:
			}
		}
		s.frames.Flush()
	}
}

// drainOnStop releases resources queued behind the stop signal so pooled
// datagram buffers are not leaked at close.
func (s *shard) drainOnStop() {
	for {
		select {
		case m := <-s.in:
			if m.in.Raw != nil {
				pdu.PutDatagram(m.in.Raw)
			}
			if m.statsC != nil {
				m.statsC <- statsReply{}
			}
			if m.okC != nil {
				m.okC <- false
			}
		default:
			return
		}
	}
}

func (s *shard) handle(m shardMsg) {
	switch m.kind {
	case msgSubmit:
		eng := s.engine(m.group)
		if eng == nil {
			return
		}
		s.dispatch(m.group, eng.Submit(m.data, s.reg.cfg.Now()))
	case msgInbound:
		eng := s.engine(m.group)
		if eng == nil {
			s.reg.dropUnknown(m.in)
			return
		}
		s.frames.Deliver(m.group, m.in, func(p *pdu.PDU) {
			// Receive errors mark malformed or foreign PDUs; the engine
			// counts them in InvalidPDUs and the protocol carries on.
			out, _ := eng.Receive(p, s.reg.cfg.Now())
			s.dispatch(m.group, out)
		})
	case msgStats:
		eng, ok := s.groups[m.group]
		if !ok || eng == nil {
			m.statsC <- statsReply{}
			return
		}
		m.statsC <- statsReply{stats: eng.Stats(), ok: true}
	case msgSnap:
		eng, ok := s.groups[m.group]
		if !ok || eng == nil {
			m.okC <- false
			return
		}
		eng.SnapshotInto(m.snap)
		m.okC <- true
	case msgStalls:
		eng, ok := s.groups[m.group]
		if !ok || eng == nil {
			m.okC <- false
			return
		}
		*m.stalls = eng.Stalls(s.reg.cfg.Now(), 0)
		m.okC <- true
	case msgQuiescent:
		for _, eng := range s.groups {
			if eng != nil && !eng.Quiescent() {
				m.okC <- false
				return
			}
		}
		m.okC <- true
	}
}

// engine returns group g's engine, instantiating it on first input. A
// failed construction is tombstoned so later inputs drop cheaply.
func (s *shard) engine(g uint32) *core.Entity {
	eng, ok := s.groups[g]
	if ok {
		return eng
	}
	eng, err := s.reg.cfg.NewEntity(g)
	if err != nil {
		eng = nil
	}
	s.groups[g] = eng
	return eng
}

func (s *shard) tickAll() {
	now := s.reg.cfg.Now()
	for g, eng := range s.groups {
		if eng != nil {
			s.dispatch(g, eng.Tick(now))
		}
	}
}

// dispatch stages an engine's output PDUs on the shard's frames (sent at
// the next flush) and hands its deliveries to the embedding runtime.
func (s *shard) dispatch(g uint32, out core.Output) {
	for _, p := range out.PDUs {
		s.frames.Append(g, p)
	}
	for _, d := range out.Deliveries {
		s.reg.cfg.Deliver(g, d)
	}
}
