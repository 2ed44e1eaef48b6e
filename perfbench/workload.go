package main

import (
	"bytes"
	"math/rand"
	"net/url"
	"strconv"
	"strings"

	"alicoco/internal/loadgen"
)

// A workload is one traffic mix. Its nominal rate is where p50/p99/CPU are
// measured; p99Limit is the latency limit capacity is judged against.
type workload struct {
	name     string
	nominal  float64 // requests/s
	p99Limit float64 // ms
	// capStart is the first rate the capacity search probes: a little
	// below the measured capacity, so the search brackets it in a step
	// or two.
	capStart float64
	// churn adds the reload writer.
	churn bool
	// newGen returns the workload's op generator.
	newGen func(c *loadgen.Corpus, seed int64) opGen
}

// Each nominal rate is half the capacity measured on a 2-vCPU Intel Xeon
// VM (p99 <= 50ms, median of five seeds: hot-zipf 24100/s, miss-scan
// 13000/s, reload-churn 16200/s). reload-churn therefore reads at less
// than hot-zipf's rate: the writer's commits take CPU, and at hot-zipf's
// rate reads queued behind them (p50 up to 35ms). At half capacity the
// run is busy enough that CPU per request no longer depends on how often
// the processors go idle: at a fifth of capacity cpu_us_per_op spread by
// 0.29 (interquartile range over median, five seeds), at half by
// 0.01-0.05. The rates and the latency limit are also stated in
// BENCHMARK.json's workload descriptions.
var workloads = map[string]*workload{
	"hot-zipf": {
		name: "hot-zipf", nominal: 12000, p99Limit: 50, capStart: 20000,
		newGen: func(c *loadgen.Corpus, seed int64) opGen { return newZipfGen(c, seed) },
	},
	"miss-scan": {
		name: "miss-scan", nominal: 6500, p99Limit: 50, capStart: 11000,
		newGen: func(c *loadgen.Corpus, seed int64) opGen { return newMissGen(c, seed) },
	},
	"reload-churn": {
		name: "reload-churn", nominal: 8000, p99Limit: 50, capStart: 14000, churn: true,
		newGen: func(c *loadgen.Corpus, seed int64) opGen { return newZipfGen(c, seed) },
	},
}

var workloadNames = []string{"hot-zipf", "miss-scan", "reload-churn"}

type opKind uint8

const (
	opSearch opKind = iota
	opRecommend
	opBatch
	numKinds
)

var kindNames = [numKinds]string{"search", "recommend", "batch"}

// op is one generated request, pre-rendered so the timed path only sends.
type op struct {
	kind  opKind
	path  string   // request URI (path and query)
	body  []byte   // batch POST body
	query string   // search query
	items []int    // recommend session
	batch []string // batch queries
}

const (
	searchItems = 12 // what GET /search asks the engine for
	recommendK  = 10
	batchSize   = 8
)

func searchOp(q string) op {
	return op{kind: opSearch, path: "/search?q=" + url.QueryEscape(q), query: q}
}

func recommendOp(items []int) op {
	b := []byte("/recommend?items=")
	for i, id := range items {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	b = append(b, "&k="...)
	b = strconv.AppendInt(b, recommendK, 10)
	return op{kind: opRecommend, path: string(b), items: items}
}

func batchOp(qs []string) op {
	var b bytes.Buffer
	b.WriteString(`{"queries":[`)
	for i, q := range qs {
		if i > 0 {
			b.WriteByte(',')
		}
		// Queries are ASCII words and digits, for which strconv.Quote
		// and JSON agree.
		b.WriteString(strconv.Quote(q))
	}
	b.WriteString(`],"max_items":` + strconv.Itoa(searchItems) + `}`)
	return op{kind: opBatch, path: "/search/batch", body: b.Bytes(), batch: qs}
}

// opGen draws a workload's ops; the same seed gives the same sequence.
type opGen interface{ next() op }

// mixGen draws a loadgen mix as single GETs.
type mixGen struct{ m *loadgen.Mix }

// newZipfGen is loadgen's zipf mix: concept names drawn zipf(s=1.1) and
// 30% recommends over the world click-log sessions. About 150 concepts
// and 256 sessions fit in the 4096-entry caches.
func newZipfGen(c *loadgen.Corpus, seed int64) mixGen {
	m, err := loadgen.NewMix("zipf", c, seed)
	if err != nil {
		panic(err) // "zipf" is one of loadgen.MixNames
	}
	return mixGen{m}
}

func (g mixGen) next() op {
	o := g.m.Next()
	if o.Recommend {
		return recommendOp(o.Session)
	}
	return searchOp(o.Query)
}

// missGen is cache-busting traffic: every query and session is new, so
// the serve bytes cache only inserts and evicts. Queries are a concept
// plus an unseen token (an exact-match miss), or the shuffled tokens of
// two concepts plus an unseen token (a primitive vote);
// sessions splice an unknown item ID into a click-log session (dropped
// before the facade builds its key, so the facade cache still hits);
// about 10% of requests are POST /search/batch of 8 unique queries.
type missGen struct {
	c    *loadgen.Corpus
	rng  *rand.Rand
	uniq int
}

func newMissGen(c *loadgen.Corpus, seed int64) *missGen {
	return &missGen{c: c, rng: rand.New(rand.NewSource(seed))}
}

func (g *missGen) query() string {
	g.uniq++
	qs := g.c.Queries
	q := qs[g.rng.Intn(len(qs))]
	if g.rng.Intn(2) == 0 {
		// Shuffled tokens of two concepts: no concept phrase survives, so
		// the engine segments, matches primitives and votes.
		toks := append(strings.Fields(q), strings.Fields(qs[g.rng.Intn(len(qs))])...)
		g.rng.Shuffle(len(toks), func(i, j int) { toks[i], toks[j] = toks[j], toks[i] })
		q = strings.Join(toks, " ")
	}
	return q + " zq" + strconv.Itoa(g.uniq)
}

func (g *missGen) next() op {
	switch r := g.rng.Float64(); {
	case r < 0.1:
		qs := make([]string, batchSize)
		for i := range qs {
			qs[i] = g.query()
		}
		return batchOp(qs)
	case r < 0.4:
		g.uniq++
		s := g.c.Sessions[g.rng.Intn(len(g.c.Sessions))]
		items := append(append(make([]int, 0, len(s)+1), s...), 1_000_000+g.uniq)
		g.rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		return recommendOp(items)
	default:
		return searchOp(g.query())
	}
}

// take draws n ops.
func take(g opGen, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}
