package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"alicoco"
)

// bench is one workload's measurement over a set-up stack.
type bench struct {
	ctx     context.Context
	cfg     config
	w       *workload
	st      *stack
	out     io.Writer
	clients []*http.Client // one per worker, at most nproc
	admin   *http.Client   // verification, reloads, scrapes
	gen     opGen
	refs    []*alicoco.CoCo // generations whose answers are valid

	servingB bool // generation B is the newest committed

	attempted, failed atomic.Int64 // shared with the reload writer
	wrong             int64
	digest            string

	metrics map[string]metric
	report  []string // "name value unit" lines, n/a included
}

func newBench(ctx context.Context, cfg config, w *workload, st *stack, out io.Writer) *bench {
	b := &bench{
		ctx: ctx, cfg: cfg, w: w, st: st, out: out,
		admin:   newClient(),
		gen:     w.newGen(st.corpus, cfg.seed),
		refs:    []*alicoco.CoCo{st.ref},
		metrics: map[string]metric{},
	}
	if w.churn {
		b.refs = append(b.refs, st.alt)
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		b.clients = append(b.clients, newClient())
	}
	return b
}

// close drops every client connection.
func (b *bench) close() {
	for _, c := range append(b.clients, b.admin) {
		c.CloseIdleConnections()
	}
}

// set records a metric for the result line and the report.
func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
	b.report = append(b.report, fmt.Sprintf("%-34s %12.4f %s", name, v, unit))
}

// na reports an end-to-end metric the workload has no operation for.
func (b *bench) na(name, unit string) {
	b.report = append(b.report, fmt.Sprintf("%-34s %12s %s", name, "n/a", unit))
}

func (b *bench) result() *result {
	return &result{Correct: b.wrong == 0, Attempted: b.attempted.Load(), Failed: b.failed.Load(), Metrics: b.metrics}
}

func (b *bench) printReport() {
	for _, line := range b.report {
		fmt.Fprintln(b.out, "metric:", line)
	}
}

// printPhase reports a phase's generator health: how late the generator
// sent (gen lag) and how long ops waited for a free connection.
func (b *bench) printPhase(pr *phaseResult) {
	st := pr.stats(0, opSearch, opRecommend, opBatch)
	fmt.Fprintf(b.out, "phase %-16s rate %7.0f/s sent %6d failed %d skipped %d p50 %.3fms p99 %.3fms gen_lag_p99 %.3fms conn_wait_p99 %.3fms cpu %.2fs\n",
		pr.name, pr.rate, pr.sent, pr.failed, pr.skipped, ms(st.p50), ms(st.p99), ms(st.genLagP99), ms(st.connWaitP99), pr.cpu.Seconds())
}

// phase draws the ops of a phase of d at the nominal rate and runs it.
func (b *bench) phase(name string, d time.Duration) (*phaseResult, error) {
	ops := take(b.gen, int(b.w.nominal*d.Seconds()))
	pr, err := b.loadRun(name, ops, b.expect(ops), b.w.nominal, 0, false)
	if err != nil {
		return nil, err
	}
	b.printPhase(pr)
	b.nominalFailures(pr)
	return pr, nil
}

// nominalFailures counts every failed request of a nominal-rate phase as a
// wrong answer: at half of capacity, a status the reference does not
// allow, a shed, a 5xx or a transport error is a fault of the program.
func (b *bench) nominalFailures(pr *phaseResult) {
	if pr.failed == 0 {
		return
	}
	b.wrong += pr.failed
	for i := range pr.recs {
		if r := &pr.recs[i]; r.bad {
			fmt.Fprintf(b.out, "WRONG ANSWER (%s) op %d %s: status %d\n", pr.name, i, kindNames[r.kind], r.status)
			break
		}
	}
}

// gated are the end-to-end metrics of the result line. The report also
// prints p50_ms, p90_ms, p99_ms, capacity_rps, failed_ratio, batch_p99_ms
// and reload_p50_ms, which are not gated: failed_ratio is 0 on any run
// that passes (a failure at the nominal rate is a wrong answer),
// batch_p99_ms and reload_p50_ms exist on one workload each, and on a
// 2-vCPU host the latency percentiles and capacity shift between runs of
// the same code by more than a usable bound allows (interquartile range
// over median of ten seeds at half capacity, two batches: 0.10-0.26 for
// p50, 0.9-1.3 for p90, 0.6-1.4 for p99, 0.10-0.33 for capacity, while
// the bound may be at most 0.25): they are set by how the in-process
// generator and server happen to share the two processors with the rest
// of the host.
var gated = []string{"setup_s", "cpu_us_per_op", "rss_mb"}

// measure is the untraced run: warm-up, the nominal-rate phase and the
// capacity search, with the reload writer running through both on
// reload-churn.
func (b *bench) measure() error {
	total := time.Duration(b.cfg.seconds) * time.Second
	if _, err := b.phase("warmup", time.Second); err != nil {
		return err
	}
	wr := b.startWriter()
	pr, err := b.phase("nominal", total/2)
	if err != nil {
		wr.stop()
		return err
	}
	capRPS, steps, err := b.capacity(total / 2)
	reloads := wr.stop()
	if err != nil {
		return err
	}
	for _, s := range steps {
		fmt.Fprintf(b.out, "capacity step %7.0f/s: n %d p99 %.3fms pass %v %s\n", s.rate, s.st.n, ms(s.st.p99), s.pass, s.why)
	}
	if wr.errs > 0 {
		return fmt.Errorf("%d reloads failed", wr.errs)
	}

	single := pr.stats(0, opSearch, opRecommend)
	setups := make([]time.Duration, len(b.st.setups))
	for i, s := range b.st.setups {
		setups[i] = s.total
	}
	b.set("setup_s", medianDur(setups).Seconds(), "s")
	b.set("p50_ms", ms(single.p50), "ms")
	b.set("p90_ms", ms(single.p90), "ms")
	b.set("p99_ms", ms(single.p99), "ms")
	b.report = append(b.report, fmt.Sprintf("%-34s %12d %s", "latency_samples", single.n, "count"))
	if batch := pr.stats(0, opBatch); batch.n > 0 {
		b.set("batch_p99_ms", ms(batch.p99), "ms")
	} else {
		b.na("batch_p99_ms", "ms")
	}
	b.set("capacity_rps", capRPS, "req/s")
	// Per completed request: failed ones are wrong answers above, and
	// must not make a run that fails them cheaply look cheaper.
	b.set("cpu_us_per_op", us(pr.cpu)/float64(max(1, pr.sent-pr.failed)), "us")
	b.set("failed_ratio", float64(pr.failed)/float64(pr.sent), "ratio")
	if len(reloads) > 0 {
		b.set("reload_p50_ms", ms(medianDur(reloads)), "ms")
	} else {
		b.na("reload_p50_ms", "ms")
	}
	b.set("rss_mb", peakRSSMB(), "MB")
	// Only the gated metrics go into the result line; the rest stay in
	// the report.
	for k := range b.metrics {
		if !slices.Contains(gated, k) {
			delete(b.metrics, k)
		}
	}
	return nil
}

// writer is the reload-churn writer: every ~250ms it commits the other
// generation with SaveShardsRetain and reloads it, alternating a full
// /reload with per-shard reloads of the changed shards.
type writer struct {
	stopc chan struct{}
	done  chan []time.Duration
	errs  int
}

func (b *bench) startWriter() *writer {
	wr := &writer{stopc: make(chan struct{}), done: make(chan []time.Duration, 1)}
	if !b.w.churn {
		wr.done <- nil
		return wr
	}
	go func() {
		c := newClient()
		defer c.CloseIdleConnections()
		var took []time.Duration
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		for full := true; ; full = !full {
			select {
			case <-wr.stopc:
				wr.done <- took
				return
			case <-t.C:
			}
			d, err := b.swap(c, !b.servingB, full)
			if err != nil {
				wr.errs++
				continue
			}
			took = append(took, d.total)
		}
	}()
	return wr
}

// stop ends the writer and returns each reload's commit-to-serving time.
func (wr *writer) stop() []time.Duration {
	close(wr.stopc)
	return <-wr.done
}

// swapTiming splits one commit+reload.
type swapTiming struct {
	total, commit, reload time.Duration
	shardsChanged         int
}

// swap commits generation B (toB) or A as the catalog's newest generation
// and makes the server serve it, by one full /reload or one
// /reload?shard=i per changed shard.
func (b *bench) swap(c *http.Client, toB, full bool) (swapTiming, error) {
	var t swapTiming
	src := b.st.ref
	if toB {
		src = b.st.alt
	}
	t0 := time.Now()
	if _, _, err := src.SaveShardsRetain(b.st.dir, numShards, retain); err != nil {
		b.attempted.Add(1)
		b.failed.Add(1)
		return t, fmt.Errorf("commit: %w", err)
	}
	t1 := time.Now()
	var urls []string
	if full {
		urls = []string{b.st.base + "/reload"}
	} else {
		for _, i := range b.st.changed {
			urls = append(urls, b.st.base+"/reload?shard="+strconv.Itoa(i))
		}
	}
	for _, u := range urls {
		body, err := b.post(c, u)
		if err != nil {
			return t, err
		}
		if full {
			var rr struct{ Source string }
			if json.Unmarshal(body, &rr) == nil {
				t.shardsChanged = parseReloaded(rr.Source)
			}
		} else {
			t.shardsChanged++
		}
	}
	t2 := time.Now()
	b.servingB = toB
	t.total, t.commit, t.reload = t2.Sub(t0), t1.Sub(t0), t2.Sub(t1)
	return t, nil
}

// post sends an admin POST and counts it as an attempted operation.
func (b *bench) post(c *http.Client, u string) ([]byte, error) {
	b.attempted.Add(1)
	req, err := http.NewRequestWithContext(b.ctx, http.MethodPost, u, nil)
	if err != nil {
		b.failed.Add(1)
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		b.failed.Add(1)
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		b.failed.Add(1)
		return nil, fmt.Errorf("POST %s: %d %s %v", u, resp.StatusCode, body, err)
	}
	return body, nil
}

// parseReloaded reads N out of a full reload's "shards:<dir> (N reloaded)".
func parseReloaded(source string) int {
	var n int
	for i := len(source) - 1; i >= 0; i-- {
		if source[i] == '(' {
			fmt.Sscanf(source[i+1:], "%d", &n)
			break
		}
	}
	return n
}
