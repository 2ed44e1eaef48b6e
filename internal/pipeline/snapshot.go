package pipeline

import (
	"fmt"
	"strings"

	"alicoco/internal/core"
	"alicoco/internal/world"
)

// Serving metadata: the world-derived data a snapshot carries beside the
// frozen net, so cold start re-reads the served net from disk instead of
// regenerating the world, retraining embeddings, and re-freezing. The
// sharded snapshot format (shards.go) stores it once per generation in its
// meta file.
//
// A loaded Artifacts is serving-only: Net, World, and the trained models
// are nil. Offline mutation paths must check Net before using it.

// ServingMeta is the world-derived data the serving layer needs beyond the
// net itself: the stopword list the search engine tokenizes with, and the
// item table mapping world item IDs to net nodes, titles, and categories.
// Build populates it; a sharded snapshot round-trips it so a loaded
// Artifacts can serve without a World.
type ServingMeta struct {
	Stopwords []string
	Items     []ItemMeta
}

// ItemMeta is one sellable item's serving-facing identity.
type ItemMeta struct {
	WorldID  int
	Node     core.NodeID
	Title    string
	Category string
}

// snapshotExtras is everything a snapshot carries beyond the frozen net.
// Its deterministic gob wire form is shardMetaWire; versioning lives in the
// meta file header, and gob's own tolerance for added/removed fields
// covers same-version evolution.
type snapshotExtras struct {
	PrimNode  map[int]core.NodeID
	FrameNode map[int]core.NodeID
	ItemNode  map[int]core.NodeID
	DomainCls map[world.Domain]core.NodeID
	Serving   ServingMeta
}

// servingExtras assembles the extras from the artifacts' fields.
func (a *Artifacts) servingExtras() snapshotExtras {
	return snapshotExtras{
		PrimNode:  a.PrimNode,
		FrameNode: a.FrameNode,
		ItemNode:  a.ItemNode,
		DomainCls: a.DomainCls,
		Serving:   *a.Serving,
	}
}

// validate checks every node reference in the extras against the node-ID
// space [0, total) of the net they were saved with.
func (e *snapshotExtras) validate(total int) error {
	validID := func(id core.NodeID) bool { return id >= 0 && int(id) < total }
	for name, m := range map[string]map[int]core.NodeID{
		"PrimNode": e.PrimNode, "FrameNode": e.FrameNode, "ItemNode": e.ItemNode,
	} {
		for k, id := range m {
			if !validID(id) {
				return fmt.Errorf("%s[%d] = %d out of range", name, k, id)
			}
		}
	}
	for d, id := range e.DomainCls {
		if !validID(id) {
			return fmt.Errorf("DomainCls[%s] = %d out of range", d, id)
		}
	}
	for i, it := range e.Serving.Items {
		if !validID(it.Node) {
			return fmt.Errorf("item %d node %d out of range", i, it.Node)
		}
	}
	return nil
}

// buildServingMeta derives the serving metadata from the built world.
func (a *Artifacts) buildServingMeta() *ServingMeta {
	m := &ServingMeta{Stopwords: a.World.Stopwords()}
	for _, it := range a.World.Items {
		m.Items = append(m.Items, ItemMeta{
			WorldID:  it.ID,
			Node:     a.ItemNode[it.ID],
			Title:    strings.Join(it.Title, " "),
			Category: a.World.Prim(it.Leaf).Name(),
		})
	}
	return m
}
