// Package pipeline orchestrates the end-to-end semi-automatic construction
// of the concept net (Sections 3-6): generate/ingest corpora, build the
// taxonomy layer, import and mine primitive concepts, generate and link
// e-commerce concepts, and associate items — producing a complete core.Net
// and its frozen snapshot (Build). The embedding and language-model
// substrate the paper's models train on is a separate stage
// (Artifacts.TrainModels) that only the experiments run.
package pipeline

import (
	"fmt"
	"runtime"
	"slices"
	"strings"

	"alicoco/internal/core"
	"alicoco/internal/emb"
	"alicoco/internal/hypernym"
	"alicoco/internal/text"
	"alicoco/internal/world"
)

// Options sizes the build.
type Options struct {
	World   world.Config
	Queries int
	Reviews int
	Guides  int
	W2V     emb.W2VConfig // word2vec training; read only by TrainModels

	// MinePatternIsA additionally runs Hearst-pattern mining over the
	// guides corpus and adds the discovered isA edges.
	MinePatternIsA bool
}

// DefaultOptions returns a laptop-scale build.
func DefaultOptions() Options {
	w2v := emb.DefaultW2VConfig()
	w2v.Dim = 32
	w2v.Epochs = 6
	w2v.Workers = runtime.GOMAXPROCS(0)
	return Options{
		World:          world.DefaultConfig(),
		Queries:        2000,
		Reviews:        2000,
		Guides:         2000,
		W2V:            w2v,
		MinePatternIsA: true,
	}
}

// TinyOptions returns a fast build for tests.
func TinyOptions() Options {
	w2v := emb.DefaultW2VConfig()
	w2v.Dim = 16
	w2v.Epochs = 2
	w2v.Workers = runtime.GOMAXPROCS(0)
	return Options{
		World:          world.TinyConfig(),
		Queries:        300,
		Reviews:        300,
		Guides:         300,
		W2V:            w2v,
		MinePatternIsA: true,
	}
}

// Artifacts bundles everything the build produces.
type Artifacts struct {
	Opts   Options
	World  *world.World
	Corpus *world.Corpus

	// The trained model substrate; nil until TrainModels runs. Build does
	// not train them, because serving never reads them.
	W2V      *emb.Word2Vec
	D2V      *emb.Doc2Vec
	Glossary *emb.Glossary
	LM       *text.NGramLM
	POS      *text.POSTagger

	Net *core.Net

	// Frozen is the read-optimized immutable snapshot of Net taken when
	// Build finished — the store serving code should query (the
	// build-offline / serve-online split). After mutating Net, call
	// Refreeze to publish a fresh snapshot. BuildNet leaves it nil.
	Frozen *core.FrozenNet

	// Shards is the partitioned form of the snapshot that serving runs on
	// — loaded from a catalog generation (LoadShards), or set by the
	// serving layer from a freeze (a one-shard partition is the whole
	// net). The serving layer assembles them into a core.ShardSet.
	Shards []*core.FrozenNet

	// Node maps from world IDs to net node IDs.
	PrimNode  map[int]core.NodeID
	FrameNode map[int]core.NodeID
	ItemNode  map[int]core.NodeID
	DomainCls map[world.Domain]core.NodeID

	// Serving is the world-derived metadata the serving layer needs
	// (stopwords, item table). Build derives it from World; LoadShards
	// restores it, which is what lets a snapshot-loaded Artifacts serve
	// with World == nil.
	Serving *ServingMeta
}

// Build constructs the concept net: world and corpus, the taxonomy,
// primitive-concept, e-commerce-concept and item layers, the frozen
// snapshot, and the serving metadata. It trains no models — serving,
// saving, reloading and inference never read them; the paper-experiment
// code calls TrainModels after Build.
func Build(opts Options) (*Artifacts, error) {
	a, err := BuildNet(opts)
	if err != nil {
		return nil, err
	}
	a.Refreeze()
	return a, nil
}

// BuildNet is Build without the freeze: the live net and its serving
// metadata, with Frozen left nil, for callers that freeze the net into a
// partition of their own (the facade's BuildSharded).
func BuildNet(opts Options) (*Artifacts, error) {
	a := &Artifacts{
		Opts:      opts,
		PrimNode:  make(map[int]core.NodeID),
		FrameNode: make(map[int]core.NodeID),
		ItemNode:  make(map[int]core.NodeID),
		DomainCls: make(map[world.Domain]core.NodeID),
	}
	a.World = world.New(opts.World)
	a.Corpus = a.World.GenCorpus(opts.Queries, opts.Reviews, opts.Guides)

	a.Net = core.NewNet()
	if err := a.buildTaxonomy(); err != nil {
		return nil, fmt.Errorf("pipeline: taxonomy: %w", err)
	}
	if err := a.buildPrimitives(); err != nil {
		return nil, fmt.Errorf("pipeline: primitives: %w", err)
	}
	if err := a.buildEConcepts(); err != nil {
		return nil, fmt.Errorf("pipeline: e-commerce concepts: %w", err)
	}
	if err := a.buildItems(); err != nil {
		return nil, fmt.Errorf("pipeline: items: %w", err)
	}
	a.Serving = a.buildServingMeta()
	return a, nil
}

// TrainModels trains the embedding and language-model substrate the
// Sections 4-6 models consume — word2vec (with Opts.W2V), the Doc2Vec
// gloss embedder, the gloss Glossary, the n-gram LM and the POS lexicon —
// and stores them in W2V, D2V, Glossary, LM and POS. Only the
// paper-experiment code reads them. Training draws from its own RNG
// (Opts.W2V.Seed), never the world's, and does not touch the net, so
// calling it after Build leaves the net and every snapshot unchanged.
func (a *Artifacts) TrainModels() {
	a.W2V = emb.TrainWord2Vec(a.Corpus.All(), a.Opts.W2V)
	a.D2V = emb.NewDoc2Vec(a.W2V)
	a.Glossary = emb.BuildGlossary(a.World.Glosses, a.D2V)
	a.LM = text.NewNGramLM()
	a.LM.Train(a.Corpus.All())
	a.POS = text.NewPOSTagger()
	a.learnPOSLexicon()
}

// Refreeze rebuilds the frozen snapshot from the live net's current state
// and returns it. Call it after offline mutations (e.g. materializing
// inferred relations) to publish them to serving code. The Frozen field
// write is not synchronized — serving layers that swap snapshots under
// traffic should hold the returned pointer in their own atomic (as the
// alicoco facade does) rather than re-reading Frozen concurrently.
func (a *Artifacts) Refreeze() *core.FrozenNet {
	a.Frozen = a.Net.Freeze()
	return a.Frozen
}

// learnPOSLexicon seeds the POS tagger from the world's vocabulary.
func (a *Artifacts) learnPOSLexicon() {
	nounDomains := map[world.Domain]bool{
		world.Category: true, world.Brand: true, world.IP: true,
		world.Organization: true, world.Location: true, world.Time: true,
		world.Audience: true, world.Event: true, world.Quantity: true,
	}
	for _, p := range a.World.Primitives {
		pos := text.PosAdj
		if nounDomains[p.Domain] {
			pos = text.PosNoun
		}
		for _, tok := range p.Tokens {
			a.POS.Learn(tok, pos)
		}
	}
}

// buildTaxonomy adds the 20 domain classes, the Category subtree classes,
// and the schema relations among classes (Section 3).
func (a *Artifacts) buildTaxonomy() error {
	root := a.Net.AddNode(core.KindClass, "root", "")
	for _, d := range world.Domains {
		cls := a.Net.AddNode(core.KindClass, strings.ToLower(string(d)), string(d))
		a.DomainCls[d] = cls
		if err := a.Net.AddEdge(cls, root, core.EdgeIsA, "", 1); err != nil {
			return err
		}
	}
	// Category subtree classes come from the primitives' class paths.
	for _, p := range a.World.Primitives {
		if p.Domain != world.Category || len(p.ClassPath) == 0 {
			continue
		}
		parent := a.DomainCls[world.Category]
		for depth := 0; depth < len(p.ClassPath); depth++ {
			name := p.ClassPath[depth]
			cls := a.Net.AddNode(core.KindClass, name, "Category")
			if cls != parent {
				if err := a.Net.AddEdge(cls, parent, core.EdgeIsA, "", 1); err != nil {
					return err
				}
			}
			parent = cls
		}
	}
	// Schema: family classes carry property domains; categories are
	// used_in events and suitable_when times. The tables are maps; walking
	// them in key order keeps edge insertion order, and with it the frozen
	// shard bytes, identical across builds of the same seed.
	famAttrs := world.FamilyAttributes()
	for _, fam := range sortedKeys(famAttrs) {
		doms := famAttrs[fam]
		famCls := a.Net.FirstByNameKind(fam, core.KindClass)
		if famCls == core.InvalidNode {
			continue
		}
		for _, d := range doms {
			if err := a.Net.AddEdge(famCls, a.DomainCls[d], core.EdgeSchema, "has_property", 1); err != nil {
				return err
			}
		}
	}
	addSchema := func(table map[string][]string, rel string, targetDomain world.Domain) error {
		for _, key := range sortedKeys(table) {
			for _, leaf := range table[key] {
				leafCls := a.Net.FirstByNameKind(leaf, core.KindClass)
				if leafCls == core.InvalidNode {
					continue
				}
				if err := a.Net.AddEdge(leafCls, a.DomainCls[targetDomain], core.EdgeSchema, rel, 1); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := addSchema(world.EventRequirements(), "used_in", world.Event); err != nil {
		return err
	}
	if err := addSchema(world.TimeRequirements(), "suitable_when", world.Time); err != nil {
		return err
	}
	return addSchema(world.FunctionRequirements(), "has_function", world.Function)
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// buildPrimitives imports every primitive concept, its instanceOf link, the
// planted isA edges (the "existing knowledge" import of Section 7.2), and
// optionally pattern-mined isA edges (Section 4.2.1).
func (a *Artifacts) buildPrimitives() error {
	for _, p := range a.World.Primitives {
		node := a.Net.AddNode(core.KindPrimitive, p.Name(), string(p.Domain))
		a.PrimNode[p.ID] = node
		cls := a.DomainCls[p.Domain]
		if p.Domain == world.Category && len(p.ClassPath) > 0 {
			// instanceOf the finest class on its path that is a class node.
			finest := p.ClassPath[len(p.ClassPath)-1]
			if c := a.Net.FirstByNameKind(finest, core.KindClass); c != core.InvalidNode {
				cls = c
			}
		}
		if err := a.Net.AddEdge(node, cls, core.EdgeInstanceOf, "", 1); err != nil {
			return err
		}
	}
	for _, pair := range a.World.HypernymPairs {
		if err := a.Net.AddEdge(a.PrimNode[pair[0]], a.PrimNode[pair[1]], core.EdgeIsA, "", 1); err != nil {
			return err
		}
	}
	if a.Opts.MinePatternIsA {
		pairs := hypernym.MinePatterns(a.Corpus.Guides)
		for _, pp := range pairs {
			hypo := a.Net.FirstByNameKind(pp.Hypo, core.KindPrimitive)
			hyper := a.Net.FirstByNameKind(pp.Hyper, core.KindPrimitive)
			if hypo == core.InvalidNode || hyper == core.InvalidNode || hypo == hyper {
				continue
			}
			if err := a.Net.AddEdge(hypo, hyper, core.EdgeIsA, "", 0.9); err != nil {
				return err
			}
		}
	}
	return nil
}

// buildEConcepts adds every scenario frame as an e-commerce concept node,
// links it to its constituent primitives (the tagging links of Section 5.3),
// and adds isA edges between concepts whose primitive sets nest.
func (a *Artifacts) buildEConcepts() error {
	for _, f := range a.World.Frames {
		node := a.Net.AddNode(core.KindEConcept, f.Name(), "")
		a.FrameNode[f.ID] = node
		for _, pid := range f.Primitives {
			if err := a.Net.AddEdge(node, a.PrimNode[pid], core.EdgeInterpretedBy, "", 1); err != nil {
				return err
			}
		}
	}
	// isA between e-commerce concepts: A isA B when B's primitives are a
	// proper subset of A's (e.g. "winter skiing" isA "skiing"-anchored
	// concepts).
	primSets := make([]map[int]bool, len(a.World.Frames))
	for i, f := range a.World.Frames {
		primSets[i] = make(map[int]bool, len(f.Primitives))
		for _, pid := range f.Primitives {
			primSets[i][pid] = true
		}
	}
	for i, fa := range a.World.Frames {
		for j, fb := range a.World.Frames {
			if i == j || len(primSets[j]) >= len(primSets[i]) || len(primSets[j]) == 0 {
				continue
			}
			subset := true
			for pid := range primSets[j] {
				if !primSets[i][pid] {
					subset = false
					break
				}
			}
			if subset {
				if err := a.Net.AddEdge(a.FrameNode[fa.ID], a.FrameNode[fb.ID], core.EdgeIsA, "", 0.8); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// buildItems adds item nodes and both association layers (Section 6).
func (a *Artifacts) buildItems() error {
	for _, item := range a.World.Items {
		node := a.Net.AddNode(core.KindItem, strings.Join(item.Title, " "), item.Family)
		a.ItemNode[item.ID] = node
		for _, pid := range a.World.ItemPrimitives(item.ID) {
			if err := a.Net.AddEdge(node, a.PrimNode[pid], core.EdgeItemPrimitive, "", 1); err != nil {
				return err
			}
		}
	}
	for _, f := range a.World.Frames {
		fNode := a.FrameNode[f.ID]
		for _, itemID := range a.World.FrameItems(f) {
			if err := a.Net.AddEdge(a.ItemNode[itemID], fNode, core.EdgeItemEConcept, "", 1); err != nil {
				return err
			}
		}
	}
	return nil
}
