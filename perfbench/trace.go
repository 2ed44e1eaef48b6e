package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"alicoco"
	"alicoco/internal/apps/recommend"
	"alicoco/internal/apps/search"
	"alicoco/internal/core"
	"alicoco/internal/obs"
	"alicoco/internal/qcache"
	"alicoco/internal/resilience"
	"alicoco/internal/text"
)

// span is one handler invocation, ns since epoch.
type span struct{ start, end int64 }

// tracer wraps the production handler from the benchmark's side: while
// on, every request carrying a numeric X-Request-Id gets its
// Handler().ServeHTTP span recorded in slot id.
type tracer struct {
	spans  atomic.Pointer[[]span]
	active atomic.Int64 // handler calls in progress
}

func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.active.Add(1)
		defer t.active.Add(-1)
		slots := t.spans.Load()
		if slots == nil {
			h.ServeHTTP(w, r)
			return
		}
		start := now()
		h.ServeHTTP(w, r)
		end := now()
		if id, err := strconv.Atoi(r.Header.Get("X-Request-Id")); err == nil && id >= 0 && id < len(*slots) {
			(*slots)[id] = span{start, end}
		}
	})
}

// record starts recording into n fresh slots.
func (t *tracer) record(n int) {
	s := make([]span, n)
	t.spans.Store(&s)
}

// stop ends recording once every handler call has returned, so the spans
// are complete and safely visible to the caller.
func (t *tracer) stop(ctx context.Context) ([]span, error) {
	s := t.spans.Swap(nil)
	for t.active.Load() != 0 {
		if err := sleepCtx(ctx, time.Millisecond); err != nil {
			return nil, err
		}
	}
	return *s, nil
}

// traced is the traced run. It measures the nominal phase untraced and
// then traced (the difference is the tracing overhead), splits the traced
// requests into transport and handler time, reads the cache, gate and
// runtime counters around it, replays the phase's ops single-threaded
// through the facade, engine, text and core public functions, and times
// commits, reloads, cache refill and /metrics scrapes.
func (b *bench) traced() error {
	total := time.Duration(b.cfg.seconds) * time.Second
	tr := b.st.tracer
	if _, err := b.phase("warmup", time.Second); err != nil {
		return err
	}
	wr := b.startWriter()
	plain, err := b.phase("nominal", total*3/10)
	if err != nil {
		wr.stop()
		return err
	}

	before, err := b.snapshotCounters()
	if err != nil {
		wr.stop()
		return err
	}
	ops := take(b.gen, int(b.w.nominal*(total*3/10).Seconds()))
	want := b.expect(ops)
	stopSampler, inflightMax := b.sampleGate()
	tr.record(len(ops))
	pr, err := b.loadRun("traced", ops, want, b.w.nominal, 0, true)
	stopSampler()
	spans, serr := tr.stop(b.ctx)
	reloads := wr.stop()
	if err != nil {
		return err
	}
	if serr != nil {
		return serr
	}
	b.printPhase(pr)
	b.nominalFailures(pr)
	after, err := b.snapshotCounters()
	if err != nil {
		return err
	}
	if wr.errs > 0 {
		return fmt.Errorf("%d reloads failed", wr.errs)
	}

	// Transport, bench and serve layers from the traced phase.
	single := pr.stats(0, opSearch, opRecommend)
	untraced := plain.stats(0, opSearch, opRecommend)
	b.set("trace.overhead_p50_ms", ms(single.p50-untraced.p50), "ms")
	b.set("bench.untraced_p50_ms", ms(untraced.p50), "ms")
	b.set("bench.untraced_p90_ms", ms(untraced.p90), "ms")
	b.set("bench.untraced_p99_ms", ms(untraced.p99), "ms")
	b.set("bench.gen_lag_ms_p99", ms(single.genLagP99), "ms")
	b.set("bench.conn_wait_ms_p99", ms(single.connWaitP99), "ms")
	b.set("bench.failed_ratio", float64(pr.failed)/float64(pr.sent), "ratio")
	var outside []time.Duration
	handler := make([][]time.Duration, numKinds)
	var busy time.Duration
	for i := range pr.recs {
		r, s := &pr.recs[i], spans[i]
		if s.end == 0 || r.done == 0 {
			continue
		}
		h := time.Duration(s.end - s.start)
		busy += h
		handler[r.kind] = append(handler[r.kind], h)
		outside = append(outside, time.Duration(r.done-r.send)-h)
	}
	b.set("transport.outside_us_p50", us(quantile(outside, 0.5)), "us")
	b.set("transport.outside_us_p99", us(quantile(outside, 0.99)), "us")
	b.set("serve.busy_frac", busy.Seconds()/(pr.wall.Seconds()*float64(runtime.GOMAXPROCS(0))), "ratio")

	batchLat := pr.stats(0, opBatch)
	if len(handler[opBatch]) == 0 {
		// The workload sends no batches: time the workload's own search
		// queries as batches of 8, sent at a low rate.
		probe, err := b.batchProbe(ops)
		if err != nil {
			return err
		}
		batchLat = probe.stats(0, opBatch)
	}
	b.set("serve.batch_p99_ms", ms(batchLat.p99), "ms")
	if len(handler[opBatch]) == 0 {
		spans, err := tr.stop(b.ctx)
		if err != nil {
			return err
		}
		for _, s := range spans {
			handler[opBatch] = append(handler[opBatch], time.Duration(s.end-s.start))
		}
	}
	for k := opKind(0); k < numKinds; k++ {
		b.set("serve."+kindNames[k]+".handler_us_p50", us(quantile(handler[k], 0.5)), "us")
		b.set("serve."+kindNames[k]+".handler_us_p99", us(quantile(handler[k], 0.99)), "us")
	}

	// qcache, gate and runtime from counters around the traced phase.
	counts := map[opKind]float64{}
	for i := range ops {
		counts[ops[i].kind]++
	}
	for _, layer := range []string{"search_bytes", "recommend_bytes"} {
		hits := after.cache[layer+".hits"] - before.cache[layer+".hits"]
		misses := after.cache[layer+".misses"] - before.cache[layer+".misses"]
		b.set("serve."+layer+".hit_ratio", ratio(hits, hits+misses), "ratio")
		b.set("serve."+layer+".evictions", after.cache[layer+".evictions"]-before.cache[layer+".evictions"], "count")
	}
	b.set("facade.search_hit_ratio", hitRatio(before.facadeSearch, after.facadeSearch), "ratio")
	b.set("facade.recommend_hit_ratio", hitRatio(before.facadeRec, after.facadeRec), "ratio")
	b.set("gate.shed_ratio_normal", ratio(float64(after.gate.ShedNormal-before.gate.ShedNormal), counts[opSearch]+counts[opRecommend]), "ratio")
	b.set("gate.shed_ratio_low", ratio(float64(after.gate.ShedLow-before.gate.ShedLow), counts[opBatch]), "ratio")
	b.set("gate.inflight_max", float64(inflightMax()), "count")
	b.set("runtime.gc_pause_us_p99", histDeltaP99(before.gcPauses, after.gcPauses)*1e6, "us")
	b.set("runtime.sched_latency_us_p99", histDeltaP99(before.sched, after.sched)*1e6, "us")
	b.set("runtime.gc_per_kop", float64(after.gcCycles-before.gcCycles)/(float64(pr.sent)/1000), "count")
	b.set("runtime.heap_mb", after.heapBytes/(1<<20), "MB")

	if err := b.replay(ops); err != nil {
		return err
	}
	if err := b.reloadProbe(reloads); err != nil {
		return err
	}
	return b.scrapeTiming()
}

// hitRatio is the hit ratio of the lookups between two cache snapshots.
func hitRatio(before, after qcache.Stats) float64 {
	hits := float64(after.Hits - before.Hits)
	return ratio(hits, hits+float64(after.Misses-before.Misses))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counters is everything read around the traced phase.
type counters struct {
	cache                   map[string]float64 // "<layer>.<hits|misses|evictions>" from /metrics
	facadeSearch, facadeRec qcache.Stats
	gate                    resilience.GateStats
	gcPauses, sched         *metrics.Float64Histogram
	gcCycles                uint64
	heapBytes               float64
}

// gcPauseMetric is the runtime's GC pause histogram under its current
// name, falling back to the older one.
func gcPauseMetric() string {
	for _, d := range metrics.All() {
		if d.Name == "/sched/pauses/total/gc:seconds" {
			return d.Name
		}
	}
	return "/gc/pauses:seconds"
}

func (b *bench) snapshotCounters() (*counters, error) {
	body, _, err := b.scrape()
	if err != nil {
		return nil, err
	}
	p, err := obs.ParseText(body)
	if err != nil {
		return nil, fmt.Errorf("parse /metrics: %w", err)
	}
	c := &counters{cache: map[string]float64{}}
	for _, layer := range []string{"search_bytes", "recommend_bytes"} {
		for _, kind := range []string{"hits", "misses", "evictions"} {
			v, ok := p.Value("cocoserve_cache_"+kind+"_total", "layer", layer)
			if !ok {
				return nil, fmt.Errorf("/metrics has no cocoserve_cache_%s_total{layer=%q}", kind, layer)
			}
			c.cache[layer+"."+kind] = v
		}
	}
	c.facadeSearch, c.facadeRec = b.st.coco.QueryCacheStats()
	c.gate = b.st.sv.GateStats()
	samples := []metrics.Sample{
		{Name: gcPauseMetric()},
		{Name: "/sched/latencies:seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}
	metrics.Read(samples)
	c.gcPauses = samples[0].Value.Float64Histogram()
	c.sched = samples[1].Value.Float64Histogram()
	c.gcCycles = samples[2].Value.Uint64()
	c.heapBytes = float64(samples[3].Value.Uint64())
	return c, nil
}

// histDeltaP99 is the p99 of the observations between two reads of a
// runtime histogram, as the upper bound of its bucket (the last finite
// bound when it falls in the overflow bucket).
func histDeltaP99(before, after *metrics.Float64Histogram) float64 {
	counts := make([]uint64, len(after.Counts))
	var total uint64
	for i := range counts {
		counts[i] = after.Counts[i] - before.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	last := 0.0
	for i, c := range counts {
		if up := after.Buckets[i+1]; !math.IsInf(up, 1) {
			last = up
		}
		if seen += c; seen >= rank {
			break
		}
	}
	return last
}

// scrape fetches /metrics and times it.
func (b *bench) scrape() ([]byte, time.Duration, error) {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(b.ctx, http.MethodGet, b.st.base+"/metrics", nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := b.admin.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("scrape /metrics: %d %v", resp.StatusCode, err)
	}
	return body, time.Since(t0), nil
}

func (b *bench) scrapeTiming() error {
	var ts []time.Duration
	for i := 0; i < 15; i++ {
		_, d, err := b.scrape()
		if err != nil {
			return err
		}
		ts = append(ts, d)
	}
	b.set("obs.scrape_ms", ms(medianDur(ts)), "ms")
	return nil
}

// sampleGate polls the gate's in-flight count every millisecond until the
// returned stop is called; max reports the highest value seen.
func (b *bench) sampleGate() (stop func(), max func() int64) {
	var peak atomic.Int64
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if v := b.st.sv.GateStats().InFlight; v > peak.Load() {
					peak.Store(v)
				}
			}
		}
	}()
	return func() { close(done); <-exited }, peak.Load
}

// batchProbe sends the phase's search queries as batches of 8 at a low
// rate, traced, for workloads whose traffic has no batches.
func (b *bench) batchProbe(ops []op) (*phaseResult, error) {
	var qs []string
	for i := range ops {
		if ops[i].kind == opSearch {
			qs = append(qs, ops[i].query)
		}
	}
	var batches []op
	for i := 0; i+batchSize <= len(qs) && len(batches) < 64; i += batchSize {
		batches = append(batches, batchOp(qs[i:i+batchSize]))
	}
	b.st.tracer.record(len(batches))
	pr, err := b.loadRun("batch-probe", batches, b.expect(batches), 100, 0, true)
	if err != nil {
		return nil, err
	}
	b.printPhase(pr)
	return pr, nil
}

// replay runs the traced phase's ops once more, single-threaded, through
// each layer's public functions against the served shard set, and reports
// per-op times and self times (a layer's time minus the layers it calls).
func (b *bench) replay(ops []op) error {
	// An uncached facade over the same catalog, so facade time is the
	// full compose path, never a cache hit.
	fc, err := alicoco.LoadShardedFrozen(b.st.dir)
	if err != nil {
		return err
	}
	fc.SetQueryCacheCapacity(0)
	arts := fc.Internal()
	set, err := core.NewShardSet(arts.Shards)
	if err != nil {
		return err
	}
	se := search.NewEngine(set, arts.Serving.Stopwords)
	re := recommend.NewEngine(set)
	itemNode := map[int]core.NodeID{}
	for _, it := range arts.Serving.Items {
		itemNode[it.WorldID] = it.Node
	}
	seg := text.NewSegmenter()
	for _, id := range set.NodesOfKind(core.KindPrimitive) {
		nd, _ := set.Node(id)
		seg.AddPhrase(strings.Fields(nd.Name), "prim")
	}
	for _, id := range set.NodesOfKind(core.KindEConcept) {
		nd, _ := set.Node(id)
		seg.AddPhrase(strings.Fields(nd.Name), "ecpt")
	}

	const maxOps = 2000
	var queries [][]byte
	var sessions [][]int
	var viewed [][]core.NodeID
	var batches [][]string
	for i := range ops {
		if len(queries)+len(sessions) >= maxOps {
			break
		}
		switch o := &ops[i]; o.kind {
		case opSearch:
			queries = append(queries, []byte(o.query))
		case opRecommend:
			sessions = append(sessions, o.items)
			var v []core.NodeID
			for _, id := range o.items {
				if n, ok := itemNode[id]; ok {
					v = append(v, n)
				}
			}
			viewed = append(viewed, v)
		case opBatch:
			batches = append(batches, o.batch)
		}
	}
	if len(batches) < 20 {
		batches = batches[:0]
		for i := 0; i+batchSize <= len(queries) && len(batches) < 64; i += batchSize {
			qs := make([]string, batchSize)
			for j := range qs {
				qs[j] = string(queries[i+j])
			}
			batches = append(batches, qs)
		}
	}

	// Inputs of the text and core steps, prepared untimed the way the
	// engine prepares them. The engine segments only queries that are not
	// an exact concept name and reads the adjacency of the primitives
	// those match; so that every workload times both steps, segmentation
	// is timed on every query and In also on the primitives interpreting
	// each exactly matched concept, and self time counts only the calls
	// the engine makes.
	tokens := make([][][]byte, len(queries))
	var names [][]byte
	var nameKinds []core.NodeKind
	var prims []core.NodeID
	exact, engineIns := 0, 0
	for i, q := range queries {
		low := text.AppendLower(nil, q)
		tokens[i] = text.AppendTokensBytes(nil, low)
		joined := text.AppendJoinBytes(nil, tokens[i])
		names = append(names, joined)
		nameKinds = append(nameKinds, core.KindEConcept)
		if id := set.FirstByNameKindBytes(joined, core.KindEConcept); id != core.InvalidNode {
			exact++
			for _, he := range set.PrimitivesForEConcept(id) {
				prims = append(prims, he.Peer)
			}
			continue
		}
		for _, s := range seg.SegmentBytesInto(nil, tokens[i]) {
			if len(s.Labels) == 0 {
				continue
			}
			name := text.AppendJoinBytes(nil, tokens[i][s.Start:s.End])
			names = append(names, name)
			nameKinds = append(nameKinds, core.KindPrimitive)
			if id := set.FirstByNameKindBytes(name, core.KindPrimitive); id != core.InvalidNode {
				prims = append(prims, id)
				engineIns += 2
			}
		}
	}
	segmented := len(queries) - exact

	ctx := b.ctx
	const reps = 3
	timeIt := func(fn func()) time.Duration {
		var ds []time.Duration
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			fn()
			ds = append(ds, time.Since(t0))
		}
		return medianDur(ds)
	}
	found := 0
	facadeSearch := timeIt(func() {
		for _, q := range queries {
			_, _ = fc.SearchCtx(ctx, string(q), searchItems)
		}
	})
	facadeRec := timeIt(func() {
		found = 0
		for _, s := range sessions {
			if _, ok, _ := fc.RecommendCtx(ctx, s, recommendK); ok {
				found++
			}
		}
	})
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, q := range queries {
		_, _ = fc.SearchCtx(ctx, string(q), searchItems)
	}
	for _, s := range sessions {
		_, _, _ = fc.RecommendCtx(ctx, s, recommendK)
	}
	runtime.ReadMemStats(&ms1)
	facadeBatch := timeIt(func() {
		for _, qs := range batches {
			_, _ = fc.SearchBatchCtx(ctx, qs, searchItems)
		}
	})
	engineSearch := timeIt(func() {
		for _, q := range queries {
			_ = se.SearchBytes(q, searchItems)
		}
	})
	engineRec := timeIt(func() {
		for _, v := range viewed {
			_, _, _ = re.RecommendCtx(ctx, v, recommendK)
		}
	})
	var low []byte
	var toks [][]byte
	tokenize := timeIt(func() {
		for _, q := range queries {
			low = text.AppendLower(low[:0], q)
			toks = text.AppendTokensBytes(toks[:0], low)
		}
	})
	var segs []text.Segment
	segment := timeIt(func() {
		for _, t := range tokens {
			segs = seg.SegmentBytesInto(segs[:0], t)
		}
	})
	lookup := timeIt(func() {
		for i, n := range names {
			_ = set.FirstByNameKindBytes(n, nameKinds[i])
		}
	})
	in := timeIt(func() {
		for _, p := range prims {
			_ = set.In(p, core.EdgeInterpretedBy)
			_ = set.In(p, core.EdgeItemPrimitive)
		}
	})

	nq, ns := float64(len(queries)), float64(len(sessions))
	perOp := func(d time.Duration, n float64) float64 { return ratio(us(d), n) }
	b.set("facade.search_us", perOp(facadeSearch, nq), "us")
	b.set("facade.recommend_us", perOp(facadeRec, ns), "us")
	b.set("facade.batch_us", perOp(facadeBatch, float64(len(batches))), "us")
	b.set("facade.compose_us", perOp(facadeSearch+facadeRec-engineSearch-engineRec, nq+ns), "us")
	b.set("facade.allocs_per_op", ratio(float64(ms1.Mallocs-ms0.Mallocs), nq+ns), "count")
	b.set("facade.bytes_per_op", ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), nq+ns), "B")
	b.set("search.engine_us", perOp(engineSearch, nq), "us")
	segNs := ratio(float64(segment), nq)
	lookupNs := ratio(float64(lookup), float64(len(names)))
	inNs := ratio(float64(in), 2*float64(len(prims)))
	called := float64(tokenize) + segNs*float64(segmented) + lookupNs*float64(len(names)) + inNs*float64(engineIns)
	b.set("search.self_us", ratio(float64(engineSearch)-called, nq)/1e3, "us")
	b.set("search.exact_ratio", ratio(float64(exact), nq), "ratio")
	b.set("recommend.engine_us", perOp(engineRec, ns), "us")
	b.set("recommend.found_ratio", ratio(float64(found), ns), "ratio")
	b.set("text.tokenize_ns", ratio(float64(tokenize), nq), "ns")
	b.set("text.segment_ns", segNs, "ns")
	b.set("core.name_lookup_ns", lookupNs, "ns")
	b.set("core.in_ns", inNs, "ns")
	return nil
}

// reloadProbe times the snapshot layers: build, commit and load from the
// set-ups, then commit+reload cycles alternating full and per-shard
// reloads on the otherwise idle server, and finally how many requests the
// bytes caches need after a swap to win back their hit ratio. On
// reload-churn reload.p50_ms is the writer's commit-to-serving time under
// load; elsewhere it is the probe's.
func (b *bench) reloadProbe(churn []time.Duration) error {
	var build, commit, load []time.Duration
	for _, s := range b.st.setups {
		build, commit, load = append(build, s.build), append(commit, s.commit), append(load, s.load)
	}
	var full, shard, totals []time.Duration
	changed := 0
	for i := 0; i < 6; i++ {
		t, err := b.swap(b.admin, !b.servingB, i%2 == 0)
		if err != nil {
			return err
		}
		commit = append(commit, t.commit)
		totals = append(totals, t.total)
		if i%2 == 0 {
			full = append(full, t.reload)
			changed = t.shardsChanged
		} else {
			shard = append(shard, t.reload)
		}
	}
	if len(churn) == 0 {
		churn = totals
	}
	b.set("pipeline.build_s", medianDur(build).Seconds(), "s")
	b.set("pipeline.load_ms", ms(medianDur(load)), "ms")
	b.set("snapstore.commit_ms", ms(medianDur(commit)), "ms")
	b.set("reload.full_ms", ms(medianDur(full)), "ms")
	b.set("reload.shard_ms", ms(medianDur(shard)/time.Duration(len(b.st.changed))), "ms")
	b.set("reload.shards_changed", float64(changed), "count")
	b.set("reload.p50_ms", ms(medianDur(churn)), "ms")

	refill, err := b.refill()
	if err != nil {
		return err
	}
	b.set("reload.refill_ops", float64(refill), "count")
	return nil
}

// refill measures, with one serial client, the bytes-cache hit ratio of
// fresh workload ops (a request the gate never admitted was a cache hit),
// swaps generations, and counts the requests until the trailing-100 hit
// ratio is back to 90% of what it was. Workloads that barely hit report 0.
func (b *bench) refill() (int, error) {
	const window, warm, limit = 100, 400, 4000
	hit := func() (bool, error) {
		o := b.gen.next()
		for o.kind == opBatch {
			o = b.gen.next()
		}
		before := b.st.sv.GateStats().Admitted
		if _, _, err := b.fetch(&o); err != nil {
			return false, err
		}
		b.attempted.Add(1)
		return b.st.sv.GateStats().Admitted == before, nil
	}
	hits := 0
	for i := 0; i < warm; i++ {
		h, err := hit()
		if err != nil {
			return 0, err
		}
		if h {
			hits++
		}
	}
	target := 0.9 * float64(hits) / warm
	if target < 0.05 {
		return 0, nil
	}
	if _, err := b.swap(b.admin, !b.servingB, true); err != nil {
		return 0, err
	}
	var last [window]bool
	inWindow := 0
	for n := 1; n <= limit; n++ {
		h, err := hit()
		if err != nil {
			return 0, err
		}
		if last[n%window] {
			inWindow--
		}
		if last[n%window] = h; h {
			inWindow++
		}
		if n >= window && float64(inWindow)/window >= target {
			return n, nil
		}
	}
	return limit, nil
}
