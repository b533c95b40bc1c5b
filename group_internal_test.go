package cobcast

import (
	"fmt"
	"testing"

	"cobcast/internal/network"
	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
)

func TestGroupMetricsSlotBounded(t *testing.T) {
	nd := &Node{}
	for i := 0; i < statezGroupLimit; i++ {
		if !nd.groupMetricsSlot() {
			t.Fatalf("slot %d refused below the bound", i)
		}
	}
	for i := 0; i < 4; i++ {
		if nd.groupMetricsSlot() {
			t.Fatal("slot granted past the bound")
		}
	}
}

// nullBatchTransport swallows frames so only the shard-side staging code
// runs; it implements BatchTransport to exercise the staged-batch path.
type nullBatchTransport struct{ broadcasts, batches int }

func (tr *nullBatchTransport) Broadcast([]byte) error { tr.broadcasts++; return nil }
func (tr *nullBatchTransport) BroadcastBatch(b [][]byte) error {
	tr.batches++
	return nil
}
func (tr *nullBatchTransport) Recv() <-chan []byte { return nil }
func (tr *nullBatchTransport) Close() error        { return nil }

// TestGroupFramesSteadyStateAllocs requires the send hot path of both
// framers — Append onto per-group staging, group 0 mixed with others as
// when one framer serves every group of a shard, Flush handing
// one frame per group to the substrate — to be allocation-free once the
// per-group states and buffers exist. The public Broadcast necessarily
// copies its payload, but from the owner loop down to the transport no
// allocation may remain; over the in-memory network only its boundary
// clone may allocate.
func TestGroupFramesSteadyStateAllocs(t *testing.T) {
	groupIDs := []uint32{0, 7, 9, 400}
	newPDU := func() *pdu.PDU {
		return &pdu.PDU{
			Kind: pdu.KindData, CID: 1, Src: 0, SEQ: 0,
			ACK: make([]pdu.Seq, 4), LSrc: pdu.NoEntity,
			Data: make([]byte, 64),
		}
	}
	for _, version := range []uint8{pdu.WireVersion, pdu.WireVersion2} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			tr := &nullBatchTransport{}
			f := newWireFrames(tr, version, 0, obsv.NewLinkMetrics())
			p := newPDU()
			step := func() {
				for _, g := range groupIDs {
					p.SEQ++
					f.Append(g, p)
				}
				f.Flush()
			}
			// Warm up: instantiate per-group send states, grow the build
			// buffers and the staged slice to their steady-state sizes.
			for i := 0; i < 8; i++ {
				step()
			}
			if allocs := testing.AllocsPerRun(200, step); allocs > 0 {
				t.Errorf("v%d Append+Flush allocates %.2f per op in steady state, want 0", version, allocs)
			}
			if tr.batches == 0 {
				t.Fatal("staged-batch path never taken")
			}
		})
	}
	t.Run("mem", func(t *testing.T) {
		// Nobody reads node 1's inbox, so once it fills the network
		// drops at overrun — after its boundary clone, so every flush
		// costs the network the same allocations.
		net := network.New(2)
		defer net.Close()
		port := net.Endpoint(0)
		f := newMemFrames(port, obsv.NewLinkMetrics())
		p := newPDU()
		const perGroup = 16
		appendAll := func() {
			for _, g := range groupIDs {
				p.SEQ++
				f.Append(g, p)
			}
		}
		step := func() {
			for i := 0; i < perGroup; i++ {
				appendAll()
			}
			f.Flush()
		}
		for i := 0; i < 8; i++ {
			step()
		}
		if allocs := testing.AllocsPerRun(perGroup-1, appendAll); allocs > 0 {
			t.Errorf("memnet Append allocates %.2f per op in steady state, want 0", allocs)
		}
		f.Flush()
		// The network's own cost for the same datagrams: one boundary
		// clone of each group's batch.
		batch := make([]*pdu.PDU, perGroup)
		for i := range batch {
			batch[i] = p
		}
		direct := testing.AllocsPerRun(20, func() {
			for _, g := range groupIDs {
				_ = port.BroadcastGroup(g, batch...)
			}
		})
		if allocs := testing.AllocsPerRun(20, step); allocs > direct {
			t.Errorf("memnet Append+Flush allocates %.2f per op, network boundary alone %.2f", allocs, direct)
		}
	})
}

func TestGroupNameFoldsIntoWireRange(t *testing.T) {
	// Group IDs must fit the v3 header's 28-bit field whatever the name.
	for _, name := range []string{"", "a", "costarring", "liquid", "déjà vu", "x/y/z"} {
		g := Group(name)
		if uint32(g) > 0x0FFFFFFF {
			t.Errorf("Group(%q) = %d exceeds MaxGroupID", name, g)
		}
		if g == DefaultGroup {
			t.Errorf("Group(%q) mapped to the default group", name)
		}
	}
}
