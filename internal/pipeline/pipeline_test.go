package pipeline

import (
	"bytes"
	"strings"
	"testing"

	"alicoco/internal/core"
	"alicoco/internal/world"
)

func buildTiny(t *testing.T) *Artifacts {
	t.Helper()
	a, err := Build(TinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestBuildProducesFourLayers(t *testing.T) {
	a := buildTiny(t)
	s := a.Net.ComputeStats()
	if s.PerKind["class"] == 0 || s.PerKind["primitive"] == 0 || s.PerKind["econcept"] == 0 || s.PerKind["item"] == 0 {
		t.Fatalf("missing layer: %+v", s.PerKind)
	}
	if s.PerKind["primitive"] != len(a.World.Primitives) {
		t.Fatalf("primitive count: net %d vs world %d", s.PerKind["primitive"], len(a.World.Primitives))
	}
	if s.PerKind["econcept"] != len(a.World.Frames) {
		t.Fatalf("econcept count: net %d vs world %d", s.PerKind["econcept"], len(a.World.Frames))
	}
	if s.PerKind["item"] != len(a.World.Items) {
		t.Fatalf("item count: net %d vs world %d", s.PerKind["item"], len(a.World.Items))
	}
}

func TestAllTwentyDomainClasses(t *testing.T) {
	a := buildTiny(t)
	for _, d := range world.Domains {
		if _, ok := a.DomainCls[d]; !ok {
			t.Fatalf("missing domain class %s", d)
		}
	}
	root := a.Net.FirstByNameKind("root", core.KindClass)
	kids := a.Net.In(root, core.EdgeIsA)
	if len(kids) != 20 {
		t.Fatalf("root should have 20 domain children, got %d", len(kids))
	}
}

func TestCategoryPathInNet(t *testing.T) {
	a := buildTiny(t)
	// Figure 3 path: category -> clothing -> outerwear -> coat (class),
	// with the "coat" primitive instanceOf the leaf class.
	coatPrim := a.Net.FirstByNameKind("coat", core.KindPrimitive)
	if coatPrim == core.InvalidNode {
		t.Fatal("coat primitive missing")
	}
	catCls := a.DomainCls[world.Category]
	if !a.Net.IsAncestor(coatPrim, catCls) {
		t.Fatal("coat should reach the Category domain class via isA/instanceOf")
	}
}

func TestEConceptInterpretation(t *testing.T) {
	a := buildTiny(t)
	ob := a.Net.FirstByNameKind("outdoor barbecue", core.KindEConcept)
	if ob == core.InvalidNode {
		t.Fatal("outdoor barbecue concept missing")
	}
	prims := a.Net.PrimitivesForEConcept(ob)
	names := map[string]bool{}
	for _, he := range prims {
		nd, _ := a.Net.Node(he.Peer)
		names[nd.Domain+":"+nd.Name] = true
	}
	if !names["Location:outdoor"] || !names["Event:barbecue"] {
		t.Fatalf("interpretation wrong: %v", names)
	}
}

func TestItemsAssociatedWithConcepts(t *testing.T) {
	a := buildTiny(t)
	ob := a.Net.FirstByNameKind("outdoor barbecue", core.KindEConcept)
	items := a.Net.ItemsForEConcept(ob, 0)
	if len(items) == 0 {
		t.Fatal("no items for outdoor barbecue")
	}
	// Every associated item's title should end with a required category.
	f := a.World.Frames[0]
	reqNames := map[string]bool{}
	for _, leafID := range f.Required {
		reqNames[a.World.Prim(leafID).Name()] = true
	}
	for _, he := range items[:min(5, len(items))] {
		nd, _ := a.Net.Node(he.Peer)
		words := strings.Fields(nd.Name)
		if !reqNames[words[len(words)-1]] {
			t.Fatalf("item %q not in required categories %v", nd.Name, reqNames)
		}
	}
}

func TestEConceptIsAHierarchy(t *testing.T) {
	a := buildTiny(t)
	s := a.Net.ComputeStats()
	if s.IsAEConcept == 0 {
		t.Fatal("no isA edges in the e-commerce concept layer")
	}
}

func TestSchemaEdgesPresent(t *testing.T) {
	a := buildTiny(t)
	s := a.Net.ComputeStats()
	if s.EdgesByKind["schema"] == 0 {
		t.Fatal("no schema edges")
	}
	// suitable_when must connect a category class to the Time domain.
	mooncake := a.Net.FirstByNameKind("mooncake", core.KindClass)
	found := false
	for _, he := range a.Net.Out(mooncake, core.EdgeSchema) {
		if he.Rel == "suitable_when" && he.Peer == a.DomainCls[world.Time] {
			found = true
		}
	}
	if !found {
		t.Fatal("mooncake should be suitable_when Time")
	}
}

// TestSnapshotRoundTrip: the live net saved as a one-shard catalog loads
// back with every node and edge.
func TestSnapshotRoundTrip(t *testing.T) {
	a := buildTiny(t)
	root := t.TempDir()
	if _, err := a.SaveShards(root, 1); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := LoadShards(root)
	if err != nil {
		t.Fatal(err)
	}
	if sole := loaded.Shards[0]; sole.NumNodes() != a.Net.NumNodes() || sole.NumEdges() != a.Net.NumEdges() {
		t.Fatal("snapshot round trip lost data")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a1 := buildTiny(t)
	a2 := buildTiny(t)
	if a1.Net.NumNodes() != a2.Net.NumNodes() || a1.Net.NumEdges() != a2.Net.NumEdges() {
		t.Fatal("build not deterministic")
	}
}

// TestTrainModelsDoesNotFeedNet: the model stage is separate from the net
// build — a net whose build ran TrainModels freezes to the same shard bytes
// as one whose build did not, so the models cannot feed the net.
func TestTrainModelsDoesNotFeedNet(t *testing.T) {
	plain := buildTiny(t)
	trained := buildTiny(t)
	trained.TrainModels()
	if trained.W2V == nil || trained.D2V == nil || trained.Glossary == nil || trained.LM == nil || trained.POS == nil {
		t.Fatal("TrainModels left a model nil")
	}
	if plain.W2V != nil {
		t.Fatal("Build trained word2vec")
	}
	want, got := plain.Net.FreezeShards(3), trained.Net.FreezeShards(3)
	for i := range want {
		var a, b bytes.Buffer
		if err := want[i].Save(&a); err != nil {
			t.Fatal(err)
		}
		if err := got[i].Save(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("shard %d differs after TrainModels (%d vs %d bytes)", i, a.Len(), b.Len())
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
