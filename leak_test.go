package cobcast_test

import (
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"cobcast"
)

// waitGoroutines polls until the goroutine count drops to at most want or
// the deadline passes, returning the final count. Polling avoids flakes
// from goroutines still unwinding after Close returns.
func waitGoroutines(want int, deadline time.Duration) int {
	end := time.Now().Add(deadline)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(end) {
			return n
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterCloseReleasesGoroutines guards the style-guide rule that
// every spawned goroutine has an owner that can stop it: creating and
// closing clusters repeatedly must not accumulate goroutines.
func TestClusterCloseReleasesGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		c, err := cobcast.NewCluster(4,
			cobcast.WithDeferredAckInterval(time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := c.Broadcast(i, []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		// Drain one node a bit, then shut down mid-flight.
		select {
		case <-c.Node(0).Deliveries():
		case <-time.After(time.Second):
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := waitGoroutines(baseline+2, 5*time.Second); got > baseline+2 {
		t.Errorf("goroutines leaked: baseline %d, now %d", baseline, got)
	}
}

// heapInuse forces a collection and reports runtime.MemStats.HeapInuse.
func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// waitHeapBelow polls like waitGoroutines until HeapInuse drops to at
// most limit or the deadline passes, returning the final reading.
// Polling absorbs the lag between protocol-level drain and the GC
// actually returning spans.
func waitHeapBelow(limit uint64, deadline time.Duration) uint64 {
	end := time.Now().Add(deadline)
	for {
		h := heapInuse()
		if h <= limit || time.Now().After(end) {
			return h
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestHeapCeilingUnderSaturateDrainCycles is the heap-level companion to
// the goroutine leak tests: with a memory budget in shed mode, repeated
// saturate→drain cycles against a stalled peer must leave HeapInuse
// within a fixed factor of the post-warm-up baseline. Without the ledger
// releasing every retention site (send log, pipeline, parked, pending
// submits, release queue) the per-cycle residue compounds and blows
// through the ceiling.
func TestHeapCeilingUnderSaturateDrainCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("heap soak: skipped in -short")
	}
	c, err := cobcast.NewCluster(3,
		cobcast.WithMemoryBudget(64<<10),
		cobcast.WithBackpressure(cobcast.BackpressureShed),
		cobcast.WithDeferredAckInterval(time.Millisecond),
		cobcast.WithRetransmitTimeout(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		go func(ch <-chan cobcast.Message) {
			for range ch {
			}
		}(c.Node(i).Deliveries())
	}

	payload := make([]byte, 1024)
	cycle := func() {
		c.Isolate(2)
		// Saturate: push until the budget sheds, then a little more so
		// every cycle exercises the shed path, not just the first.
		shed := 0
		for i := 0; i < 10000 && shed < 10; i++ {
			if err := c.Node(0).Broadcast(payload); err != nil {
				shed++
			}
		}
		if shed == 0 {
			t.Fatal("budget never shed during saturation")
		}
		c.Rejoin(2)
		if err := c.Node(0).WaitIdle(20 * time.Second); err != nil {
			t.Fatal(err)
		}
	}

	// Warm-up cycle: populates every pool and lazily allocated structure
	// before the baseline is taken.
	cycle()
	baseline := heapInuse()
	// HeapInuse is spiky at small absolute sizes; 3x the post-warm-up
	// baseline (floored at 8 MiB) is far above steady-state noise yet far
	// below what even one cycle of leaked retention would accumulate.
	limit := 3 * baseline
	if floor := uint64(8 << 20); limit < floor {
		limit = floor
	}
	for round := 0; round < 4; round++ {
		cycle()
		if got := waitHeapBelow(limit, 10*time.Second); got > limit {
			t.Fatalf("round %d: HeapInuse %d exceeds ceiling %d (baseline %d)",
				round, got, limit, baseline)
		}
	}
}

// TestUDPNodeCloseReleasesGoroutines does the same over the UDP
// transport.
func TestUDPNodeCloseReleasesGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		tr, err := cobcast.NewUDPTransport("127.0.0.1:0", []string{"127.0.0.1:1"}, 0)
		if err != nil {
			t.Fatal(err)
		}
		nd, err := cobcast.NewNode(0, 2, tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := nd.Broadcast([]byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := nd.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := waitGoroutines(baseline+2, 5*time.Second); got > baseline+2 {
		t.Errorf("goroutines leaked: baseline %d, now %d", baseline, got)
	}
}

// goroutineEntries maps each live goroutine's ID to its entry function:
// the bottom frame of its stack, above the "created by" line.
func goroutineEntries() map[int]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[int]string{}
	for _, block := range strings.Split(string(buf), "\n\n") {
		lines := strings.Split(block, "\n")
		// Header: "goroutine N [state]:"; then func/file line pairs.
		fields := strings.Fields(lines[0])
		if len(fields) < 2 || fields[0] != "goroutine" {
			continue
		}
		id, err := strconv.Atoi(fields[1])
		if err != nil {
			continue
		}
		entry := ""
		for i := 1; i < len(lines); i += 2 {
			if strings.HasPrefix(lines[i], "created by ") {
				break
			}
			if j := strings.LastIndex(lines[i], "("); j > 0 {
				entry = lines[i][:j]
			}
		}
		out[id] = entry
	}
	return out
}

// spawnedSince returns the entry functions of goroutines alive now that
// were not in before, sorted, with their IDs. A goroutine that has not
// run yet shows only runtime.goexit, so it polls until every new one
// has started (or a second passes).
func spawnedSince(before map[int]string) ([]string, map[int]string) {
	end := time.Now().Add(time.Second)
	for {
		var names []string
		ids := map[int]string{}
		started := true
		for id, entry := range goroutineEntries() {
			if _, ok := before[id]; !ok {
				names = append(names, entry)
				ids[id] = entry
				started = started && entry != "runtime.goexit"
			}
		}
		if started || time.Now().After(end) {
			sort.Strings(names)
			return names, ids
		}
		time.Sleep(time.Millisecond)
	}
}

// waitGone polls until none of ids is alive or the deadline passes,
// returning the survivors.
func waitGone(ids map[int]string, deadline time.Duration) []string {
	end := time.Now().Add(deadline)
	for {
		var left []string
		live := goroutineEntries()
		for id, entry := range ids {
			if _, ok := live[id]; ok {
				left = append(left, entry)
			}
		}
		if len(left) == 0 || time.Now().After(end) {
			return left
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestNodeGoroutineBudget pins the runtime's goroutine structure: an
// inbound datagram crosses one goroutine boundary, substrate → owner
// loop, so a single-group node runs exactly one owner loop (its home
// shard) and one delivery pump (its default group port's) on top of
// whatever its substrate runs — no per-link forwarding goroutine, no
// idle shard — and Close releases every one of them. Opening another
// group adds that port's pump, plus its owner shard's loop if that
// shard is not running yet.
func TestNodeGoroutineBudget(t *testing.T) {
	const loopFn, pumpFn = "cobcast/internal/groups.run[...]", "cobcast.(*GroupPort).pump"

	t.Run("udp", func(t *testing.T) {
		before := goroutineEntries()
		tr, err := cobcast.NewUDPTransport("127.0.0.1:0", []string{"127.0.0.1:1"}, 0)
		if err != nil {
			t.Fatal(err)
		}
		nd, err := cobcast.NewNode(0, 2, tr)
		if err != nil {
			t.Fatal(err)
		}
		got, ids := spawnedSince(before)
		if len(got) != 3 || got[0] != pumpFn || got[1] != loopFn ||
			!strings.HasPrefix(got[2], "cobcast/internal/udpnet.(*Transport).readLoop") {
			t.Errorf("NewNode over UDP runs %q, want its loop, its delivery pump and the transport reader", got)
		}
		if err := nd.Close(); err != nil {
			t.Fatal(err)
		}
		if left := waitGone(ids, 5*time.Second); len(left) > 0 {
			t.Errorf("goroutines alive after Close: %q", left)
		}
	})

	t.Run("cluster", func(t *testing.T) {
		const n = 4
		before := goroutineEntries()
		c, err := cobcast.NewCluster(n)
		if err != nil {
			t.Fatal(err)
		}
		got, ids := spawnedSince(before)
		count := map[string]int{}
		for _, entry := range got {
			switch {
			case entry == loopFn, entry == pumpFn:
				count[entry]++
			case strings.HasPrefix(entry, "cobcast/internal/network."):
				// The in-memory network's own per-pair pipes.
			default:
				t.Errorf("NewCluster(%d) runs unexpected goroutine %q", n, entry)
			}
		}
		if count[loopFn] != n || count[pumpFn] != n {
			t.Errorf("NewCluster(%d) runs %d loops and %d delivery pumps, want %d each", n, count[loopFn], count[pumpFn], n)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if left := waitGone(ids, 5*time.Second); len(left) > 0 {
			t.Errorf("goroutines alive after Close: %q", left)
		}
	})
	t.Run("shards=2", func(t *testing.T) {
		c, err := cobcast.NewCluster(2, cobcast.WithGroupShards(2))
		if err != nil {
			t.Fatal(err)
		}
		ids := map[int]string{}
		// Of two shards, even group IDs hash to the home shard and odd
		// ones to shard 1.
		for _, step := range []struct {
			g    cobcast.GroupID
			want []string
		}{
			{2, []string{pumpFn}},
			{1, []string{pumpFn, loopFn}},
			{3, []string{pumpFn}},
		} {
			before := goroutineEntries()
			c.Group(0, step.g)
			got, spawned := spawnedSince(before)
			sort.Strings(step.want)
			if strings.Join(got, ",") != strings.Join(step.want, ",") {
				t.Errorf("opening group %d starts %q, want %q", step.g, got, step.want)
			}
			for id, entry := range spawned {
				ids[id] = entry
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if left := waitGone(ids, 5*time.Second); len(left) > 0 {
			t.Errorf("goroutines alive after Close: %q", left)
		}
	})
}
