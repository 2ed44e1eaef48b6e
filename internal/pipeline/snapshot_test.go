package pipeline

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"alicoco/internal/core"
	"alicoco/internal/snapstore"
)

// TestArtifactsSnapshotRoundTrip: a one-shard catalog — how an
// unpartitioned net is persisted — loads back into a serving-only
// Artifacts whose node maps and serving metadata match the built ones and
// whose sole shard answers like the built frozen net.
func TestArtifactsSnapshotRoundTrip(t *testing.T) {
	a := buildTiny(t)
	root := t.TempDir()
	if _, err := a.SaveShards(root, 1); err != nil {
		t.Fatal(err)
	}
	b, man, err := LoadShards(root)
	if err != nil {
		t.Fatal(err)
	}
	if b.Net != nil || b.World != nil || b.W2V != nil || b.Frozen != nil {
		t.Fatal("loaded artifacts should be serving-only")
	}
	if man.NumShards() != 1 || len(b.Shards) != 1 {
		t.Fatalf("one-shard catalog loaded %d shards (manifest %d)", len(b.Shards), man.NumShards())
	}
	sole := b.Shards[0]
	if sole.NumNodes() != a.Frozen.NumNodes() || sole.NumEdges() != a.Frozen.NumEdges() {
		t.Fatalf("frozen counts differ: %d/%d nodes, %d/%d edges",
			sole.NumNodes(), a.Frozen.NumNodes(), sole.NumEdges(), a.Frozen.NumEdges())
	}
	if !reflect.DeepEqual(a.PrimNode, b.PrimNode) || !reflect.DeepEqual(a.FrameNode, b.FrameNode) ||
		!reflect.DeepEqual(a.ItemNode, b.ItemNode) || !reflect.DeepEqual(a.DomainCls, b.DomainCls) {
		t.Fatal("node maps differ after round trip")
	}
	if !reflect.DeepEqual(a.Serving, b.Serving) {
		t.Fatal("serving metadata differs after round trip")
	}
	// Spot-check real queries answer identically on the loaded net.
	for _, ec := range a.Frozen.NodesOfKind(core.KindEConcept)[:5] {
		la, lb := a.Frozen.ItemsForEConcept(ec, 10), sole.ItemsForEConcept(ec, 10)
		if !reflect.DeepEqual(la, lb) {
			t.Fatalf("ItemsForEConcept(%d) differs after round trip", ec)
		}
	}
	for _, p := range a.Frozen.NodesOfKind(core.KindPrimitive)[:5] {
		if !reflect.DeepEqual(a.Frozen.Ancestors(p, 0), sole.Ancestors(p, 0)) {
			t.Fatalf("Ancestors(%d) differs after round trip", p)
		}
	}
}

// TestLoadSnapshotRejectsCorruptHeader: a meta file with a bad magic, an
// unknown version, or any truncation never loads.
func TestLoadSnapshotRejectsCorruptHeader(t *testing.T) {
	a := buildTiny(t)
	root := t.TempDir()
	if _, err := a.SaveShards(root, 1); err != nil {
		t.Fatal(err)
	}
	dir, _, err := snapstore.ResolveDir(root)
	if err != nil {
		t.Fatal(err)
	}
	meta := filepath.Join(dir, shardMetaName)
	full, err := os.ReadFile(meta)
	if err != nil {
		t.Fatal(err)
	}
	loadWith := func(data []byte) error {
		t.Helper()
		if err := os.WriteFile(meta, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := LoadShards(root)
		return err
	}

	bad := append([]byte(nil), full...)
	copy(bad, "XXXX")
	if err := loadWith(bad); err == nil {
		t.Fatal("bad magic accepted")
	}

	bad = append([]byte(nil), full...)
	bad[4] = 99
	if err := loadWith(bad); err == nil {
		t.Fatal("bad version accepted")
	}

	for _, cut := range []int{0, 3, 5, len(full) / 2, len(full) - 1} {
		if err := loadWith(full[:cut]); err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
	}
	if err := loadWith(full); err != nil {
		t.Fatalf("restored meta file: %v", err)
	}
}

// TestSaveSnapshotRequiresFrozen: artifacts with nothing to freeze (no
// live net, no serving metadata) refuse to save, and the refused save
// commits no generation.
func TestSaveSnapshotRequiresFrozen(t *testing.T) {
	root := t.TempDir()
	if _, err := (&Artifacts{}).SaveShards(root, 1); err == nil {
		t.Fatal("snapshot of artifacts without a live net should error")
	}
	if gens, err := snapstore.ListGenerations(root); err != nil || len(gens) != 0 {
		t.Fatalf("refused save left generations %v (err=%v)", gens, err)
	}
}
