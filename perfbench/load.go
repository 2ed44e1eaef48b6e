package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// epoch is the zero of every timestamp the benchmark records (ns since
// epoch, monotonic), client and handler spans alike.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// Outcome codes beside HTTP statuses.
const (
	statusNotSent  = -1 // abandoned: its worker was too far behind
	statusNetError = 0
)

// rec is one request's timeline, ns since epoch.
type rec struct {
	due, take, send, done int64
	status                int32
	kind                  opKind
	bad                   bool // failed: transport error or a status the op must not get
}

func (r *rec) latency() time.Duration { return time.Duration(r.done - r.due) }

// phaseResult is one open-loop phase.
type phaseResult struct {
	name    string
	rate    float64
	recs    []rec
	wall    time.Duration
	cpu     time.Duration // process user+sys over the phase
	sent    int64
	failed  int64
	skipped int64 // not sent: abandoned by a worker that fell behind
}

// newClient returns a client that holds one connection and reuses it.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		Timeout: 5 * time.Second,
	}
}

// loadRun drives one open-loop phase: op i is due at start + i/rate, and
// the nproc workers each take the next op, wait for its due time, send it
// on their own connection and record its timeline. With abandon > 0 a
// worker that takes an op more than abandon past its due time skips it,
// so an overloaded phase ends on time; skipped ops count as missing every
// latency limit. want[i] is the set of statuses op i may get (bit 0: 200,
// bit 1: 404). traced sends each op's index as X-Request-Id.
func (b *bench) loadRun(name string, ops []op, want []uint8, rate float64, abandon time.Duration, traced bool) (*phaseResult, error) {
	if err := b.ctx.Err(); err != nil {
		return nil, err
	}
	pr := &phaseResult{name: name, rate: rate, recs: make([]rec, len(ops))}
	interval := float64(time.Second) / rate
	var next atomic.Int64
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	start := now() + int64(time.Millisecond)
	for _, c := range b.clients {
		p, err := newPacer()
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func(c *http.Client, p *pacer) {
			defer wg.Done()
			defer p.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) || b.ctx.Err() != nil {
					return
				}
				r := &pr.recs[i]
				r.kind = ops[i].kind
				r.due = start + int64(float64(i)*interval)
				r.take = now()
				if abandon > 0 && r.take-r.due > int64(abandon) {
					r.status = statusNotSent
					continue
				}
				p.wait(r.due)
				r.send = now()
				r.status = int32(b.send(c, &ops[i], i, traced))
				r.done = now()
				r.bad = want[i]&statusBit(int(r.status)) == 0
			}
		}(c, p)
	}
	wg.Wait()
	pr.cpu = cpuTime() - cpu0
	pr.wall = time.Duration(now() - start)
	if err := b.ctx.Err(); err != nil {
		return nil, err
	}
	for i := range pr.recs {
		switch r := &pr.recs[i]; {
		case r.status == statusNotSent:
			pr.skipped++
		case r.bad:
			pr.sent++
			pr.failed++
		default:
			pr.sent++
		}
	}
	b.attempted.Add(pr.sent)
	b.failed.Add(pr.failed)
	return pr, nil
}

func statusBit(status int) uint8 {
	switch status {
	case http.StatusOK:
		return 1
	case http.StatusNotFound:
		return 2
	}
	return 0
}

// send issues one op and returns its status (0 on a transport error).
func (b *bench) send(c *http.Client, o *op, id int, traced bool) int {
	var req *http.Request
	var err error
	if o.kind == opBatch {
		req, err = http.NewRequestWithContext(b.ctx, http.MethodPost, b.st.base+o.path, bytes.NewReader(o.body))
		if err == nil {
			req.Header["Content-Type"] = jsonCT
		}
	} else {
		req, err = http.NewRequestWithContext(b.ctx, http.MethodGet, b.st.base+o.path, nil)
	}
	if err != nil {
		return statusNetError
	}
	if traced {
		req.Header["X-Request-Id"] = []string{strconv.Itoa(id)}
	}
	resp, err := c.Do(req)
	if err != nil {
		return statusNetError
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

var jsonCT = []string{"application/json"}

// expect computes, through the in-process references, which statuses
// each op may get: search and batch always answer 200, a recommend 200 or
// 404 depending on whether the session has a recommendation.
func (b *bench) expect(ops []op) []uint8 {
	want := make([]uint8, len(ops))
	for i := range ops {
		if ops[i].kind != opRecommend {
			want[i] = 1
			continue
		}
		for _, ref := range b.refs {
			if _, ok := ref.Recommend(ops[i].items, recommendK); ok {
				want[i] |= 1
			} else {
				want[i] |= 2
			}
		}
	}
	return want
}

// latStats summarizes a phase's latencies for some op kinds. Failed and
// skipped ops count as slower than any limit.
type latStats struct {
	n             int
	p50, p90, p99 time.Duration
	genLagP99     time.Duration // how late sends left after an op was due and taken
	connWaitP99   time.Duration // how long a due op waited for a free worker
}

const inf = time.Duration(1<<63 - 1)

func (pr *phaseResult) stats(from int64, kinds ...opKind) latStats {
	var lats, lags, waits []time.Duration
	for i := range pr.recs {
		r := &pr.recs[i]
		if r.due < from || !hasKind(kinds, r.kind) {
			continue
		}
		if r.status == statusNotSent || r.bad {
			lats = append(lats, inf)
			continue
		}
		lats = append(lats, r.latency())
		lags = append(lags, time.Duration(r.send-max(r.due, r.take)))
		waits = append(waits, time.Duration(max(0, r.take-r.due)))
	}
	return latStats{
		n:           len(lats),
		p50:         quantile(lats, 0.5),
		p90:         quantile(lats, 0.9),
		p99:         quantile(lats, 0.99),
		genLagP99:   quantile(lags, 0.99),
		connWaitP99: quantile(waits, 0.99),
	}
}

func hasKind(kinds []opKind, k opKind) bool {
	for _, x := range kinds {
		if x == k {
			return true
		}
	}
	return false
}

// quantile is the exact nearest-rank quantile of raw samples (sorted in
// place); 0 for no samples.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(xs, func(i, j int) bool { return xs[i] < xs[j] }) {
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	}
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	return xs[rank]
}

// capStep is one probed rate of the capacity search.
type capStep struct {
	rate float64
	st   latStats
	pass bool
	why  string
}

// capacity finds the highest offered rate whose p99 stays within the
// workload's limit with at most 1% failed and no growing backlog. Near
// that rate a step passes or fails by chance, so a single bisection
// path lands anywhere in that band; the search therefore first brackets
// it in 1.25x strides from capStart and then runs a staircase (x1.04
// after a pass, /1.08 after a failure, which settles where two steps in
// three pass) and reports the mean rate the staircase visited. If the
// budget ends before the staircase starts, the highest passing rate is
// reported.
func (b *bench) capacity(budget time.Duration) (float64, []capStep, error) {
	const stepDur = time.Second
	limit := time.Duration(b.w.p99Limit * float64(time.Millisecond))
	deadline := time.Now().Add(budget)
	r := b.w.capStart
	var steps []capStep
	var best, visited float64
	var stair int
	for time.Until(deadline) >= stepDur {
		s, err := b.capStep(r, stepDur, limit)
		if err != nil {
			return 0, steps, err
		}
		steps = append(steps, s)
		if s.pass && r > best {
			best = r
		}
		switch {
		case stair > 0 || (len(steps) > 1 && s.pass != steps[len(steps)-2].pass):
			// Bracketed: staircase.
			stair++
			visited += r
			if s.pass {
				r *= 1.04
			} else {
				r /= 1.08
			}
		case s.pass:
			r *= 1.25
		default:
			r /= 1.25
		}
	}
	if stair == 0 {
		return best, steps, nil
	}
	return visited / float64(stair), steps, nil
}

func (b *bench) capStep(rate float64, dur, limit time.Duration) (capStep, error) {
	n := int(rate * dur.Seconds())
	ops := take(b.gen, n)
	pr, err := b.loadRun(fmt.Sprintf("capacity@%.0f", rate), ops, b.expect(ops), rate, limit, false)
	if err != nil {
		return capStep{}, err
	}
	// Judge the last three quarters: the first absorbs the step-up. The
	// p99 judged is the median of the p99s of its three thirds, so a
	// burst that one third recovers from does not fail a sustainable
	// rate, while a growing backlog fails them all.
	judged := pr.recs[n/4:]
	thirds := make([]time.Duration, 3)
	for j := range thirds {
		part := &phaseResult{recs: judged[j*len(judged)/3 : (j+1)*len(judged)/3]}
		thirds[j] = part.stats(0, opSearch, opRecommend).p99
	}
	s := capStep{rate: rate, st: pr.stats(judged[0].due, opSearch, opRecommend), pass: true}
	s.st.p99 = medianDur(thirds)
	var failed int
	var waitQ2, waitQ4 time.Duration
	var nQ2, nQ4 int
	for i := n / 4; i < n; i++ {
		r := &pr.recs[i]
		if r.bad {
			failed++
		}
		if r.status == statusNotSent {
			continue
		}
		w := time.Duration(max(0, r.take-r.due))
		if i < n/2 {
			waitQ2 += w
			nQ2++
		} else if i >= 3*n/4 {
			waitQ4 += w
			nQ4++
		}
	}
	switch {
	case s.st.p99 > limit:
		s.pass, s.why = false, "p99"
	case float64(failed) > 0.01*float64(len(judged)):
		s.pass, s.why = false, "failed"
	case nQ2 > 0 && nQ4 > 0 && waitQ4/time.Duration(nQ4)-waitQ2/time.Duration(nQ2) > limit/10:
		s.pass, s.why = false, "backlog"
	}
	// Let the server drain before the next step.
	return s, sleepCtx(b.ctx, 50*time.Millisecond)
}

// sleepCtx waits d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
