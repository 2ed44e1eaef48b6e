package alicoco

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func buildSmall(t *testing.T) *CoCo {
	t.Helper()
	c, err := Build(Small())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildAndStats(t *testing.T) {
	c := buildSmall(t)
	s := c.Stats()
	if s.Primitives == 0 || s.EConcepts == 0 || s.Items == 0 || s.Classes == 0 {
		t.Fatalf("missing layer: %+v", s)
	}
	if len(s.PrimitivesByDomain) != 20 {
		t.Fatalf("expected 20 domains, got %d", len(s.PrimitivesByDomain))
	}
	if !strings.Contains(s.Render(), "E-commerce concepts") {
		t.Fatal("Render missing content")
	}
}

// TestBuildTrainsNoModels: the facade serves from the net alone, so Build
// must not train the model substrate only the paper experiments read.
func TestBuildTrainsNoModels(t *testing.T) {
	a := buildSmall(t).Internal()
	if a.W2V != nil || a.D2V != nil || a.Glossary != nil || a.LM != nil || a.POS != nil {
		t.Fatal("facade Build trained models")
	}
}

func TestFacadeSearch(t *testing.T) {
	c := buildSmall(t)
	res := c.Search("outdoor barbecue", 8)
	if len(res.Cards) == 0 {
		t.Fatal("no concept card")
	}
	if res.Cards[0].Name != "outdoor barbecue" {
		t.Fatalf("card: %q", res.Cards[0].Name)
	}
	if len(res.Cards[0].Items) == 0 {
		t.Fatal("card without items")
	}
}

func TestFacadeRecommend(t *testing.T) {
	c := buildSmall(t)
	sessions := c.SampleSessions(5)
	if len(sessions) == 0 {
		t.Fatal("no sessions")
	}
	rec, ok := c.Recommend(sessions[0], 5)
	if !ok {
		t.Fatal("no recommendation")
	}
	if !strings.HasPrefix(rec.Reason, "for ") {
		t.Fatalf("reason: %q", rec.Reason)
	}
	if len(rec.Card.Items) == 0 {
		t.Fatal("recommendation without items")
	}
}

func TestFacadeConceptLookup(t *testing.T) {
	c := buildSmall(t)
	cpt, ok := c.LookupConcept("outdoor barbecue")
	if !ok {
		t.Fatal("concept missing")
	}
	if cpt.ItemCount == 0 || len(cpt.Primitives) != 2 {
		t.Fatalf("concept malformed: %+v", cpt)
	}
	if _, ok := c.LookupConcept("no such concept"); ok {
		t.Fatal("phantom concept")
	}
}

func TestFacadeHypernymsAndGlosses(t *testing.T) {
	c := buildSmall(t)
	h := c.Hypernyms("coat")
	if len(h) == 0 {
		t.Fatal("coat should have hypernyms")
	}
	foundClothing := false
	for _, x := range h {
		if x == "clothing" {
			foundClothing = true
		}
	}
	if !foundClothing {
		t.Fatalf("coat ancestors should include clothing: %v", h)
	}
	g := c.Glosses("barbecue")
	if len(g) == 0 || !strings.Contains(g[0], "grill") {
		t.Fatalf("barbecue gloss should mention grill: %v", g)
	}
}

func TestFacadeItems(t *testing.T) {
	c := buildSmall(t)
	items := c.Items()
	if len(items) == 0 {
		t.Fatal("no items")
	}
	if items[0].Title == "" || items[0].Category == "" {
		t.Fatalf("item malformed: %+v", items[0])
	}
}

func TestFacadeConceptsList(t *testing.T) {
	c := buildSmall(t)
	cs := c.Concepts()
	if len(cs) == 0 {
		t.Fatal("no concepts")
	}
}

// TestSaveSnapshot: the facade's one save path commits a generation into
// a snapshot catalog — a one-shard partition here — with non-empty files.
func TestSaveSnapshot(t *testing.T) {
	c := buildSmall(t)
	root := t.TempDir()
	man, err := c.SaveShards(root, 1)
	if err != nil {
		t.Fatal(err)
	}
	if man.NumShards() != 1 {
		t.Fatalf("manifest has %d shards, want 1", man.NumShards())
	}
	fi, err := os.Stat(filepath.Join(root, "gen-000001", man.Shards[0].File))
	if err != nil || fi.Size() == 0 {
		t.Fatalf("shard file not written: %v", err)
	}
}

// TestFrozenSnapshotRoundTripFacade: a built CoCo saved as a one-shard
// catalog loads back into a CoCo that answers every query path like the
// original, ingests a new generation, and reports clean errors on the
// offline-only paths.
func TestFrozenSnapshotRoundTripFacade(t *testing.T) {
	c := buildSmall(t)
	root := t.TempDir()
	if _, err := c.SaveShards(root, 1); err != nil {
		t.Fatal(err)
	}
	l, err := LoadShardedFrozen(root)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumShards() != 1 || c.NumShards() != 1 {
		t.Fatalf("NumShards: built %d, loaded %d, want 1", c.NumShards(), l.NumShards())
	}
	cs, ls := c.Stats(), l.Stats()
	if cs.Relations != ls.Relations || cs.Items != ls.Items || cs.EConcepts != ls.EConcepts {
		t.Fatalf("stats differ:\nbuilt  %+v\nloaded %+v", cs, ls)
	}
	cr, lr := c.Search("outdoor barbecue", 8), l.Search("outdoor barbecue", 8)
	if len(cr.Cards) == 0 || len(cr.Cards) != len(lr.Cards) || cr.Cards[0].Name != lr.Cards[0].Name {
		t.Fatalf("search differs: %+v vs %+v", cr.Cards, lr.Cards)
	}
	if len(cr.Cards[0].Items) != len(lr.Cards[0].Items) {
		t.Fatal("card items differ")
	}
	ci, li := c.Items(), l.Items()
	if len(ci) != len(li) || ci[0] != li[0] {
		t.Fatalf("items differ: %d vs %d", len(ci), len(li))
	}
	sessions := c.SampleSessions(3)
	for _, sess := range sessions {
		crec, cok := c.Recommend(sess, 5)
		lrec, lok := l.Recommend(sess, 5)
		if cok != lok || crec.Reason != lrec.Reason || len(crec.Card.Items) != len(lrec.Card.Items) {
			t.Fatalf("recommendation differs for %v", sess)
		}
	}
	if h := l.Hypernyms("coat"); len(h) == 0 {
		t.Fatal("loaded net lost hypernyms")
	}
	// Offline-only paths degrade cleanly on a snapshot-loaded CoCo.
	if l.SampleSessions(1) != nil {
		t.Fatal("snapshot-loaded CoCo should have no sessions")
	}
	if l.Glosses("barbecue") != nil {
		t.Fatal("snapshot-loaded CoCo should have no glosses")
	}
	if _, err := l.InferImplicitRelations(); err == nil {
		t.Fatal("infer on snapshot-loaded CoCo should error")
	}
	if err := l.Refreeze(); err == nil {
		t.Fatal("refreeze on snapshot-loaded CoCo should error")
	}
	if _, err := l.SaveShards(t.TempDir(), 1); err == nil {
		t.Fatal("save of snapshot-loaded CoCo should error")
	}
	// A newer generation of the same content is picked up by a reload.
	if _, err := c.SaveShards(root, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ReloadShards(root); err != nil {
		t.Fatal(err)
	}
	if g := l.ServingInfo().CatalogGen; g != 2 {
		t.Fatalf("serving gen %d after reload, want 2", g)
	}
	if res := l.Search("outdoor barbecue", 8); len(res.Cards) == 0 {
		t.Fatal("no card after reload")
	}
}

// TestLoadFrozenRejectsMissingAndCorrupt: only a catalog root loads. A
// missing path, a flat directory, a bare generation directory and a
// corrupt catalog are errors that name the cause.
func TestLoadFrozenRejectsMissingAndCorrupt(t *testing.T) {
	c := buildSmall(t)
	root := t.TempDir()
	if _, err := c.SaveShards(root, 1); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, dir, want string }{
		{"missing", filepath.Join(root, "missing"), "no such file"},
		{"flat", t.TempDir(), "not a snapshot catalog root"},
		{"generation", filepath.Join(root, "gen-000001"), "generation directory"},
	} {
		if _, err := LoadShardedFrozen(tc.dir); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err=%v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	if err := os.WriteFile(filepath.Join(root, "CATALOG"), []byte("definitely not a catalog"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadShardedFrozen(root); err == nil {
		t.Fatal("corrupt catalog should error")
	}
}

func TestWorldDomains(t *testing.T) {
	if len(WorldDomains()) != 20 {
		t.Fatal("paper defines 20 domains")
	}
}

func TestInferImplicitRelations(t *testing.T) {
	c := buildSmall(t)
	rels, err := c.InferImplicitRelations()
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) == 0 {
		t.Fatal("no implied relations")
	}
	for _, r := range rels {
		if r.Concept == "" || !strings.Contains(r.Primitive, ":") || r.Lift < 1 {
			t.Fatalf("malformed relation: %+v", r)
		}
	}
}

// TestConcurrentServeDuringRefreeze drives queries while inference
// re-freezes and swaps the serving snapshot; run with -race to prove the
// atomic swap is sound.
func TestConcurrentServeDuringRefreeze(t *testing.T) {
	c := buildSmall(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := c.InferImplicitRelations(); err != nil {
			t.Error(err)
		}
	}()
	for i := 0; i < 200; i++ {
		c.Search("outdoor barbecue", 5)
		c.Hypernyms("coat")
		c.LookupConcept("outdoor barbecue")
	}
	<-done
	// After the swap, serving still answers.
	if res := c.Search("outdoor barbecue", 5); len(res.Cards) == 0 {
		t.Fatal("no card after refreeze")
	}
}
