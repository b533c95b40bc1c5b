package cobcast_test

import (
	"testing"
	"time"

	"cobcast"
)

// TestCrashedNodeFreezesDeliveryUntilEvicted demonstrates the failure
// mode and the cure: with node 2 isolated, nothing can be acknowledged;
// after the survivors evict it, delivery resumes.
func TestCrashedNodeFreezesDeliveryUntilEvicted(t *testing.T) {
	c, err := cobcast.NewCluster(3,
		cobcast.WithDeferredAckInterval(time.Millisecond),
		cobcast.WithRetransmitTimeout(4*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.Isolate(2) // node 2 "crashes" before anything is sent

	if err := c.Broadcast(0, []byte("stranded?")); err != nil {
		t.Fatal(err)
	}
	// Without eviction nothing may be delivered.
	select {
	case m := <-c.Node(0).Deliveries():
		t.Fatalf("delivered %q with a dead quorum member", m.Data)
	case <-time.After(300 * time.Millisecond):
	}

	for _, survivor := range []int{0, 1} {
		if err := c.Node(survivor).Evict(2); err != nil {
			t.Fatal(err)
		}
	}
	for _, survivor := range []int{0, 1} {
		select {
		case m := <-c.Node(survivor).Deliveries():
			if string(m.Data) != "stranded?" {
				t.Fatalf("node %d delivered %q", survivor, m.Data)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("node %d still frozen after eviction (stats %+v)",
				survivor, c.Node(survivor).Stats())
		}
	}
}

// TestSuspectTimeoutAutoEvicts lets the suspicion timer handle the crash.
func TestSuspectTimeoutAutoEvicts(t *testing.T) {
	c, err := cobcast.NewCluster(3,
		cobcast.WithDeferredAckInterval(time.Millisecond),
		cobcast.WithRetransmitTimeout(4*time.Millisecond),
		cobcast.WithSuspectTimeout(150*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.Isolate(2)
	if err := c.Broadcast(0, []byte("self-healing")); err != nil {
		t.Fatal(err)
	}
	for _, survivor := range []int{0, 1} {
		select {
		case m := <-c.Node(survivor).Deliveries():
			if string(m.Data) != "self-healing" {
				t.Fatalf("node %d delivered %q", survivor, m.Data)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("node %d never delivered (stats %+v)",
				survivor, c.Node(survivor).Stats())
		}
	}
}

func TestEvictValidationPublic(t *testing.T) {
	c, err := cobcast.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Node(0).Evict(0); err == nil {
		t.Error("self-evict accepted")
	}
	if err := c.Node(0).Evict(9); err == nil {
		t.Error("out-of-range evict accepted")
	}
	c.Close()
	if err := c.Node(0).Evict(1); err == nil {
		t.Error("evict after close accepted")
	}
}

// TestEvictAppliesToEveryGroup pins that eviction is a node-wide
// membership decision: after the survivors evict a crashed member, a
// group that already carried traffic delivers again, and so does a
// group whose engines are first built after the eviction.
func TestEvictAppliesToEveryGroup(t *testing.T) {
	c, err := cobcast.NewCluster(3,
		cobcast.WithDeferredAckInterval(time.Millisecond),
		cobcast.WithRetransmitTimeout(4*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	expect := func(node int, g cobcast.GroupID, want string) {
		t.Helper()
		select {
		case m := <-c.Group(node, g).Deliveries():
			if string(m.Data) != want {
				t.Fatalf("node %d group %d delivered %q, want %q", node, g, m.Data, want)
			}
		case <-time.After(10 * time.Second):
			st, _ := c.Group(node, g).Stats()
			t.Fatalf("node %d group %d never delivered %q (stats %+v)", node, g, want, st)
		}
	}

	busy := cobcast.Group("busy")
	if err := c.Group(0, busy).Broadcast([]byte("warm-up")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		expect(i, busy, "warm-up")
	}

	c.Isolate(2)
	if err := c.Group(0, busy).Broadcast([]byte("stranded?")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-c.Group(0, busy).Deliveries():
		t.Fatalf("delivered %q with a dead quorum member", m.Data)
	case <-time.After(300 * time.Millisecond):
	}

	for _, survivor := range []int{0, 1} {
		if err := c.Node(survivor).Evict(2); err != nil {
			t.Fatal(err)
		}
	}
	for _, survivor := range []int{0, 1} {
		expect(survivor, busy, "stranded?")
	}

	fresh := cobcast.Group("fresh")
	if err := c.Group(1, fresh).Broadcast([]byte("after eviction")); err != nil {
		t.Fatal(err)
	}
	for _, survivor := range []int{0, 1} {
		expect(survivor, fresh, "after eviction")
	}
}
