package obsv

import (
	"encoding/json"
	"io"
	"sort"

	"cobcast/internal/flight"
)

// StallsFunc produces the current stall-analyzer verdicts of one
// entity. ok is false when the report could not be taken (owner loop
// busy past the deadline), mirroring SnapshotFunc.
type StallsFunc func() ([]Stall, bool)

// RegisterFlight attaches the flight recorder of group's engine to the
// node registered under label (the label RegisterNode returned), with
// the wall-clock epoch (UnixNano) that event timestamps are relative
// to. Unknown labels get their own entry so an engine can publish its
// ring without entity metrics.
func (r *Registry) RegisterFlight(label string, group uint32, fr *flight.Ring, epochUnixNano int64) {
	if r == nil || fr == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.nodes {
		if r.nodes[i].label == label {
			r.nodes[i].fr = fr
			r.nodes[i].group = group
			r.nodes[i].epoch = epochUnixNano
			return
		}
	}
	r.nodes = append(r.nodes, nodeEntry{label: label, fr: fr, group: group, epoch: epochUnixNano})
}

// RegisterStalls attaches a stall-report provider to the node
// registered under label.
func (r *Registry) RegisterStalls(label string, f StallsFunc) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.nodes {
		if r.nodes[i].label == label {
			r.nodes[i].stalls = f
			return
		}
	}
	r.nodes = append(r.nodes, nodeEntry{label: label, stalls: f})
}

// NodeFlight is one engine's flight-recorder dump as served on /tracez:
// the retained events, the group whose sequence space their (src, seq)
// identities belong to, and the epoch that converts their relative
// nanosecond timestamps to wall time (epoch 0 means virtual time — a
// simulated entity).
type NodeFlight struct {
	Node          string         `json:"node"`
	Group         uint32         `json:"group,omitempty"`
	EpochUnixNano int64          `json:"epoch_unix_nano"`
	Recorded      uint64         `json:"recorded"`
	Capacity      int            `json:"capacity"`
	Events        []flight.Event `json:"events"`
}

// Tracez is the JSON document served at /tracez: every registered
// flight ring, scraped live (recording continues; slots overwritten
// mid-scrape are skipped by the ring's seqlock).
type Tracez struct {
	Nodes []NodeFlight `json:"nodes"`
}

// Tracez snapshots every registered flight ring.
func (r *Registry) Tracez() Tracez {
	nodes, _, _ := r.snapshotLists()
	var out Tracez
	for _, n := range nodes {
		if n.fr == nil {
			continue
		}
		out.Nodes = append(out.Nodes, NodeFlight{
			Node:          n.label,
			Group:         n.group,
			EpochUnixNano: n.epoch,
			Recorded:      n.fr.Recorded(),
			Capacity:      n.fr.Cap(),
			Events:        n.fr.Snapshot(nil),
		})
	}
	sort.Slice(out.Nodes, func(i, j int) bool { return out.Nodes[i].Node < out.Nodes[j].Node })
	return out
}

// WriteTracez renders the flight dumps as indented JSON.
func (r *Registry) WriteTracez(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Tracez())
}

// StallReport collects the current stall verdicts of every node with a
// provider, each attributed to its node label.
func (r *Registry) StallReport() []Stall {
	nodes, _, _ := r.snapshotLists()
	var out []Stall
	for _, n := range nodes {
		if n.stalls == nil {
			continue
		}
		sts, ok := n.stalls()
		if !ok {
			continue
		}
		for _, st := range sts {
			st.Node = n.label
			out = append(out, st)
		}
	}
	return out
}
