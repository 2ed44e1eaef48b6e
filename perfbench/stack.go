package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"alicoco"
	"alicoco/internal/loadgen"
	"alicoco/internal/pipeline"
	"alicoco/internal/serve"
)

const (
	numShards = 4
	// setupRuns is how many times a run sets the stack up; setup_s is
	// the median.
	setupRuns = 5
	// retain is the catalog's rollback window while the writer churns.
	retain = 3
)

// setupTiming splits one set-up: build, commit and load, and the total
// from build start to the first /readyz 200.
type setupTiming struct {
	total, build, commit, load time.Duration
}

// stack is the production serving stack under test plus the in-process
// references its answers are checked against.
type stack struct {
	root string // per-run temp dir, removed by close
	dir  string // the served generation catalog

	ref    *alicoco.CoCo // generation A: the built net, never served
	alt    *alicoco.CoCo // generation B: A after InferImplicitRelations
	refMan *pipeline.ShardManifest
	// changed lists the shards whose content differs between A and B.
	changed []int

	coco   *alicoco.CoCo // the served facade, loaded from dir
	sv     *serve.Server
	hs     *http.Server
	served chan error
	base   string
	tracer *tracer // nil unless traced

	corpus *loadgen.Corpus
	setups []setupTiming
}

func buildOpts(cfg config) alicoco.Options {
	if cfg.small {
		return alicoco.Small()
	}
	return alicoco.Default()
}

// setupStack sets the stack up setupRuns times, timing each, and keeps
// the last one serving. Generation B is built when the workload or the
// traced run needs reloads.
func setupStack(ctx context.Context, cfg config, w *workload, out io.Writer) (*stack, error) {
	root, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return nil, err
	}
	st := &stack{root: root}
	if cfg.trace {
		st.tracer = &tracer{}
	}
	ok := false
	defer func() {
		if !ok {
			st.close()
		}
	}()
	var prev *alicoco.CoCo
	for i := 0; i < setupRuns; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if st.hs != nil {
			if err := st.stopServer(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(st.dir); err != nil {
				return nil, err
			}
			prev = st.ref
		}
		// Start each set-up with no collection debt left by the last.
		runtime.GC()
		t, err := st.setupOnce(ctx, cfg, filepath.Join(root, fmt.Sprintf("catalog-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", i, err)
		}
		st.setups = append(st.setups, t)
		fmt.Fprintf(out, "setup %d: total %.3fs build %.3fs commit %.1fms load %.1fms, serving on %s\n", i,
			t.total.Seconds(), t.build.Seconds(), ms(t.commit), ms(t.load), strings.TrimPrefix(st.base, "http://"))
	}
	if st.corpus, err = loadgen.CorpusFrom(st.ref, 256); err != nil {
		return nil, err
	}
	if w.churn || cfg.trace {
		if _, err := prev.InferImplicitRelations(); err != nil {
			return nil, fmt.Errorf("build generation B: %w", err)
		}
		st.alt = prev
		if st.changed, err = st.diffShards(); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "generation B: shards changed %v of %d\n", st.changed, numShards)
	}
	ok = true
	return st, nil
}

// setupOnce builds, commits, loads and serves one stack, timing build
// start to the first /readyz 200.
func (st *stack) setupOnce(ctx context.Context, cfg config, dir string) (setupTiming, error) {
	var t setupTiming
	t0 := time.Now()
	built, err := alicoco.BuildSharded(buildOpts(cfg), numShards)
	if err != nil {
		return t, fmt.Errorf("build: %w", err)
	}
	t1 := time.Now()
	man, _, err := built.SaveShardsRetain(dir, numShards, retain)
	if err != nil {
		return t, fmt.Errorf("commit: %w", err)
	}
	t2 := time.Now()
	coco, err := alicoco.LoadShardedFrozen(dir)
	if err != nil {
		return t, fmt.Errorf("load: %w", err)
	}
	t3 := time.Now()
	sv := serve.New(coco, serve.Config{SnapshotDir: dir})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return t, err
	}
	var h http.Handler = sv.Handler()
	if st.tracer != nil {
		h = st.tracer.wrap(h)
	}
	st.ref, st.refMan, st.dir, st.coco, st.sv = built, man, dir, coco, sv
	st.hs = &http.Server{Handler: h}
	st.served = make(chan error, 1)
	st.base = "http://" + ln.Addr().String()
	go func(hs *http.Server, served chan<- error) { served <- hs.Serve(ln) }(st.hs, st.served)
	if err := waitReady(ctx, st.base); err != nil {
		return t, err
	}
	t4 := time.Now()
	return setupTiming{total: t4.Sub(t0), build: t1.Sub(t0), commit: t2.Sub(t1), load: t3.Sub(t2)}, nil
}

// waitReady polls /readyz until it answers 200.
func waitReady(ctx context.Context, base string) error {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	c := &http.Client{Transport: tr, Timeout: 2 * time.Second}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := c.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// diffShards commits B into a scratch catalog and lists the shards whose
// checksum differs from A's.
func (st *stack) diffShards() ([]int, error) {
	dir := filepath.Join(st.root, "diff")
	defer os.RemoveAll(dir)
	man, _, err := st.alt.SaveShardsRetain(dir, numShards, 1)
	if err != nil {
		return nil, fmt.Errorf("commit generation B: %w", err)
	}
	var changed []int
	for i := range man.Shards {
		if man.Shards[i].Checksum != st.refMan.Shards[i].Checksum {
			changed = append(changed, i)
		}
	}
	if len(changed) == 0 {
		return nil, errors.New("generation B does not differ from A")
	}
	return changed, nil
}

// stopServer closes the listener and every connection and waits for the
// serve goroutine to return.
func (st *stack) stopServer() error {
	if st.hs == nil {
		return nil
	}
	err := st.hs.Close()
	if serr := <-st.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	st.hs = nil
	return err
}

// close stops the server and removes every file the run wrote.
func (st *stack) close() error {
	err := st.stopServer()
	if rerr := os.RemoveAll(st.root); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
