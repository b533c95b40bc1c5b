// Package groups is the node runtime: it multiplexes independent
// causally/totally ordered groups — each its own core.Entity with its
// own sequence space, message log and ready queues, the default group 0
// among them — over one shared substrate.
//
// The paper's engine is single-writer by construction: every input to an
// entity must be serialized on one goroutine. Instead of one goroutine
// per group (unbounded) or one for all groups (no parallelism), the
// registry hash-assigns each group to one of a fixed, GOMAXPROCS-sized
// set of shards. Each shard is one owner loop holding every engine
// mapped to it, which preserves the single-writer invariant per group
// while letting independent groups progress in parallel across shards.
//
// Every shard runs the same owner loop. Shard 0, the home shard, also
// reads the substrate's receive channel: it owns group 0, whose engine
// New builds up front, handles datagrams for groups it owns in place
// and forwards the rest to their owner shards. The other shards start
// on the first use of a group they own, so a single-group node runs
// exactly one owner loop.
//
// Engines other than group 0's are lazy: the first send or receive
// naming a group instantiates it, up to MaxGroups; past the bound (or
// after close) inbound frames are dropped and counted as unknown-group
// loss — the protocol treats that exactly like transport loss, so a
// late joiner or a confused peer can never crash the runtime.
//
// Each shard owns a Frames adapter, supplied by the embedding runtime
// for its substrate, and flushes it once per input burst
// (flush-on-loop-idle), so PDUs from many groups coalesce into the same
// staged-batch/sendmmsg path.
package groups

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cobcast/internal/core"
	"cobcast/internal/flight"
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
// representation: Raw for substrates that move encoded frames, PDUs for
// substrates that move decoded PDU pointers (the in-memory network).
// The shard's Frames adapter interprets its own inbounds.
type Inbound struct {
	Raw  []byte
	PDUs []*pdu.PDU
}

// Frames is an owner loop's attachment to the wire. One Frames exists
// per shard and is used only from that shard's goroutine, so
// implementations need no locking of their own (the transport
// underneath must accept concurrent sends, as the UDP transport does).
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

// Config assembles a Registry. NewEntity, NewFrames, Deliver and Now
// are the seams to the embedding runtime and must all be set.
type Config struct {
	// Shards is the number of owner loops; <= 0 derives it from
	// GOMAXPROCS.
	Shards int
	// MaxGroups bounds lazily instantiated engines; <= 0 selects
	// DefaultMaxGroups. Group 0 rides outside the bound.
	MaxGroups int
	// NewEntity builds group g's protocol engine (including any metrics
	// wiring). It runs on the owning shard goroutine, except for group
	// 0, which New builds before any shard starts.
	NewEntity func(g uint32) (*core.Entity, error)
	// NewFrames builds one shard's wire adapter; it is owned by that
	// shard's goroutine for the registry's lifetime.
	NewFrames func() Frames
	// Deliver receives group g's causally ordered deliveries, on the
	// owning shard goroutine; it must hand off quickly (the embedding
	// runtime queues to its consumers).
	Deliver func(g uint32, d core.Delivery)
	// DroppedUnknown, if set, is called once per inbound dropped for an
	// unknown-group reason (a group ID past pdu.MaxGroupID, over the
	// MaxGroups bound, failed engine construction, closed registry).
	DroppedUnknown func()
	// Tick is the per-shard protocol tick interval driving timeouts and
	// deferred ACKs for every engine the shard owns.
	Tick time.Duration
	// Now is the shared protocol clock (time since the node started).
	Now func() time.Duration
}

// Registry is a node's runtime: the group table plus the shard owner
// loops that hold the engines. All methods are safe for concurrent use.
type Registry struct {
	cfg    Config
	shards []*shard

	mu     sync.Mutex
	known  map[uint32]struct{}
	closed bool
}

// New builds group 0's engine, which fails New if it cannot be built,
// and starts the home shard reading inbox: each datagram it receives is
// addressed by addr and routed to its group's owner. A closed inbox
// ends the home shard; the other shards start on first use.
func New[T any](cfg Config, inbox <-chan T, addr func(T) (uint32, Inbound)) (*Registry, error) {
	if cfg.NewEntity == nil || cfg.NewFrames == nil || cfg.Deliver == nil || cfg.Now == nil {
		return nil, errors.New("groups: incomplete config")
	}
	if cfg.Shards <= 0 {
		// One shard per schedulable CPU. Shards park when idle and start
		// only once a group they own is used, so a generous count costs
		// nothing on a big machine. An explicit cfg.Shards always wins.
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
		r.shards[i] = &shard{
			reg:    r,
			groups: make(map[uint32]*core.Entity),
			stop:   make(chan struct{}),
			done:   make(chan struct{}),
		}
	}
	eng, err := cfg.NewEntity(0)
	if err != nil {
		return nil, err
	}
	home := r.shards[0]
	home.groups[0] = eng
	home.start()
	go run(home, inbox, addr)
	return r, nil
}

// shardOf hash-assigns group g to its owner shard. Fibonacci hashing
// spreads the sequential and the name-hashed ID populations alike, and
// maps group 0 to the home shard.
func (r *Registry) shardOf(g uint32) *shard {
	h := g * 0x9E3779B1
	return r.shards[h%uint32(len(r.shards))]
}

// Open reserves g in the group table, enforcing the MaxGroups bound,
// and starts g's owner shard if it is not running yet; the shard builds
// g's engine on its first input. Opening a known group, or group 0,
// which is always present, is a no-op.
func (r *Registry) Open(g uint32) error {
	if g == 0 {
		return nil
	}
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
	if s := r.shardOf(g); !s.running.Load() {
		s.start()
		go run[Inbound](s, nil, nil)
	}
	return nil
}

// Submit broadcasts data on group g, instantiating the group if needed.
// data is retained by the engine (callers pass an owned copy). It blocks
// only while the owning shard's inbox is full (backpressure), or until
// ctx is done.
func (r *Registry) Submit(ctx context.Context, g uint32, data []byte) error {
	if err := r.Open(g); err != nil {
		return err
	}
	return r.shardOf(g).send(ctx, shardMsg{kind: msgSubmit, group: g, data: data})
}

// Inbound routes one received wire unit to group g's owner shard,
// instantiating the group on first receive. Frames for groups past the
// MaxGroups bound — or arriving after close — are dropped and counted
// via DroppedUnknown: unknown-group loss, repaired (or not) like any
// other transport loss, never a crash.
func (r *Registry) Inbound(g uint32, in Inbound) {
	if err := r.Open(g); err != nil {
		r.dropUnknown(in)
		return
	}
	if err := r.shardOf(g).send(context.Background(), shardMsg{kind: msgInbound, group: g, in: in}); err != nil {
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

// GroupCount reports how many groups besides group 0 are known.
func (r *Registry) GroupCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.known)
}

// Inspect runs read on group g's engine between inputs on its owner
// shard or, once that shard has exited, directly: its engines are no
// longer mutated. It reports false if g has no engine or timeout (nil
// for none) fires before the shard takes the request.
func (r *Registry) Inspect(g uint32, timeout <-chan time.Time, read func(e *core.Entity)) bool {
	s := r.shardOf(g)
	ok := false
	f := func() {
		if eng := s.groups[g]; eng != nil {
			read(eng)
			ok = true
		}
	}
	if !s.do(f, timeout) {
		select {
		case <-s.done:
			f()
		default:
		}
	}
	return ok
}

// Update runs f on group g's engine between inputs on its owner shard
// and sends the output f returns as the engine's own. It reports false
// if g has no engine or its shard has stopped.
func (r *Registry) Update(g uint32, f func(e *core.Entity, now time.Duration) core.Output) bool {
	s := r.shardOf(g)
	ok := false
	return s.do(func() {
		if eng := s.groups[g]; eng != nil {
			now := r.cfg.Now()
			s.dispatch(g, eng, f(eng, now), now)
			ok = true
		}
	}, nil) && ok
}

// Each runs f on every engine, shard by shard, between inputs on the
// owning shard, and sends the output f returns as that engine's own. It
// reports false if a running shard has stopped.
func (r *Registry) Each(f func(g uint32, e *core.Entity, now time.Duration) core.Output) bool {
	for _, s := range r.shards {
		if !s.running.Load() {
			continue
		}
		if !s.do(func() {
			now := r.cfg.Now()
			for g, eng := range s.groups {
				if eng != nil {
					s.dispatch(g, eng, f(g, eng, now), now)
				}
			}
		}, nil) {
			return false
		}
	}
	return true
}

// Close stops every shard. Pending inputs may be dropped —
// indistinguishable from loss. It is idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	// No shard starts once closed is set, so running is final here.
	for _, s := range r.shards {
		if s.running.Load() {
			close(s.stop)
		}
	}
	for _, s := range r.shards {
		if s.running.Load() {
			<-s.done
		}
	}
}

// shardInboxCap is each shard's input queue depth. Full inboxes apply
// backpressure to submitters and to the home shard's forwarding (which
// in turn stops reading the substrate — the receive socket buffer
// absorbs bursts).
const shardInboxCap = 256

const (
	msgSubmit = iota
	msgInbound
	msgDo
)

type shardMsg struct {
	kind  int
	group uint32
	data  []byte
	in    Inbound
	do    func()
}

// shard is one owner loop and the engines hash-assigned to it. Only the
// shard goroutine touches groups, its engines or its Frames — the
// single-writer invariant, per group, by construction.
type shard struct {
	reg *Registry
	// in and frames are made when the shard starts; running is set
	// once they are.
	in      chan shardMsg
	frames  Frames
	running atomic.Bool
	// groups maps group ID -> engine; a nil engine is a tombstone for a
	// group whose construction failed (inputs drop as unknown-group loss
	// instead of retrying construction per datagram).
	groups map[uint32]*core.Entity
	stop   chan struct{}
	done   chan struct{}

	// cur and curG are the engine and group whose inbound frames is
	// decoding; recv is receive bound once (a method value passed per
	// datagram would allocate).
	cur  *core.Entity
	curG uint32
	recv func(p *pdu.PDU)
}

// start makes s's inbox and frames ahead of its owner loop. The
// registry's mu must be held, or the registry not yet shared.
func (s *shard) start() {
	s.in = make(chan shardMsg, shardInboxCap)
	s.frames = s.reg.cfg.NewFrames()
	s.running.Store(true)
}

// send enqueues m, blocking while the inbox is full; it fails once the
// shard has stopped, or with ctx's error once ctx is done. The common
// case — room in the inbox — takes only single-case non-blocking
// selects, which lock at most the inbox, before falling back to the
// blocking select, which locks every channel it names.
func (s *shard) send(ctx context.Context, m shardMsg) error {
	select {
	case <-s.stop:
		return ErrClosed
	default:
	}
	select {
	case <-s.done:
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
	case <-ctx.Done():
		return ctx.Err()
	}
}

// do runs f on s's goroutine between inputs and waits for it to return.
// It reports false, without running f, if s is not running, stops
// first, or timeout (nil for none) fires before s takes the request.
func (s *shard) do(f func(), timeout <-chan time.Time) bool {
	if !s.running.Load() {
		return false
	}
	ran := make(chan struct{})
	select {
	case s.in <- shardMsg{kind: msgDo, do: func() { f(); close(ran) }}:
	case <-s.done:
		return false
	case <-timeout:
		return false
	}
	select {
	case <-ran:
		return true
	case <-s.done:
		// f runs before done closes if it runs at all.
		select {
		case <-ran:
			return true
		default:
			return false
		}
	}
}

// run is the owner loop every shard runs: block for one input, drain
// whatever else is pending without blocking, then flush — so the PDUs
// every engine produced for one burst ride out together, across groups,
// in one staged-batch send. Each drain pass polls every input once with
// a single-case non-blocking receive (a lock-free check on an empty
// channel, where re-arming the full select would lock every channel)
// until a pass finds nothing. The home shard reads the substrate's
// inbox; every other shard passes a nil inbox, which never fires.
func run[T any](s *shard, inbox <-chan T, addr func(T) (uint32, Inbound)) {
	defer close(s.done)
	ticker := time.NewTicker(s.reg.cfg.Tick)
	defer ticker.Stop()
	s.recv = s.receive
	for {
		select {
		case <-s.stop:
			s.drainOnStop()
			return
		case m := <-s.in:
			s.handle(m)
		case b, ok := <-inbox:
			if !ok {
				s.drainOnStop()
				return
			}
			s.route(addr(b))
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
			case b, ok := <-inbox:
				if !ok {
					s.drainOnStop()
					return
				}
				s.route(addr(b))
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
// datagram buffers are not leaked at close. Queued requests are dropped
// unrun; their callers see the shard done.
func (s *shard) drainOnStop() {
	for {
		select {
		case m := <-s.in:
			if m.in.Raw != nil {
				pdu.PutDatagram(m.in.Raw)
			}
		default:
			return
		}
	}
}

// route hands one datagram off the substrate, addressed to group g, to
// its owner: in place when this shard owns g, else forwarded to the
// owner shard. A group ID past pdu.MaxGroupID (a corrupted or hostile
// header) is dropped whole and counted as unknown-group loss.
func (s *shard) route(g uint32, in Inbound) {
	switch {
	case g > pdu.MaxGroupID:
		s.reg.dropUnknown(in)
	case s.reg.shardOf(g) != s:
		s.reg.Inbound(g, in)
	default:
		s.inbound(g, in)
	}
}

func (s *shard) handle(m shardMsg) {
	switch m.kind {
	case msgSubmit:
		if eng := s.engine(m.group); eng != nil {
			now := s.reg.cfg.Now()
			s.dispatch(m.group, eng, eng.Submit(m.data, now), now)
		}
	case msgInbound:
		s.inbound(m.group, m.in)
	case msgDo:
		m.do()
	}
}

// inbound decodes one datagram for group g, an engine this shard owns,
// into the engine.
func (s *shard) inbound(g uint32, in Inbound) {
	eng := s.engine(g)
	if eng == nil {
		s.reg.dropUnknown(in)
		return
	}
	s.cur, s.curG = eng, g
	s.frames.Deliver(g, in, s.recv)
	s.cur = nil
}

func (s *shard) receive(p *pdu.PDU) {
	now := s.reg.cfg.Now()
	s.cur.RecordWire(flight.EvWireIn, now, p)
	// Receive errors mark malformed or foreign PDUs; the engine counts
	// them in InvalidPDUs and the protocol carries on.
	out, _ := s.cur.Receive(p, now)
	s.dispatch(s.curG, s.cur, out, now)
}

// engine returns group g's engine, instantiating it on first input once
// g holds a MaxGroups slot (nil past the bound). A failed construction
// is tombstoned so later inputs drop cheaply.
func (s *shard) engine(g uint32) *core.Entity {
	if eng, ok := s.groups[g]; ok {
		return eng
	}
	if s.reg.Open(g) != nil {
		return nil
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
			s.dispatch(g, eng, eng.Tick(now), now)
		}
	}
}

// dispatch stages an engine's output PDUs on the shard's frames (sent at
// the next flush), recording each on the engine's flight ring, and
// hands its deliveries to the embedding runtime.
func (s *shard) dispatch(g uint32, eng *core.Entity, out core.Output, now time.Duration) {
	eng.RecordWire(flight.EvWireOut, now, out.PDUs...)
	for _, p := range out.PDUs {
		s.frames.Append(g, p)
	}
	for _, d := range out.Deliveries {
		s.reg.cfg.Deliver(g, d)
	}
}
