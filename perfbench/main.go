// Command perfbench is the serving benchmark: it builds the production
// stack in its own process (BuildSharded -> SaveShardsRetain into a temp
// catalog -> LoadShardedFrozen -> serve.New(...).Handler() on a loopback
// listener), checks its answers against the in-process facade, and drives
// it over HTTP with an open-loop generator (constant-interval arrivals, at
// most nproc connections, every request timed from its scheduled send
// time).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload hot-zipf --seed 1 --seconds 30 --trace 0
//
// --workload is hot-zipf, miss-scan, reload-churn or all. A run sets the
// stack up five times (setup_s is the median), verifies a seeded sample
// of answers byte for byte, warms up, measures half of --seconds at the
// workload's nominal rate (latency, CPU per request) and spends the other
// half finding the capacity. With --trace 1 a separate traced run reports
// the per-layer split instead. A human-readable report (host stamp,
// generator health per phase, every metric with its unit, n/a where the
// workload has no such operation) precedes the last stdout line, a JSON
// object with the gated metrics. A wrong answer makes the command exit
// non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// runBudget bounds one invocation: past it everything is torn down and the
// command fails, well inside the 180s a run may take.
const runBudget = 165 * time.Second

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// small builds alicoco.Small() instead of Default(); tests only.
	small bool
}

func main() {
	var cfg config
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "all", "hot-zipf, miss-scan, reload-churn or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same requests")
	fs.IntVar(&cfg.seconds, "seconds", 30, "measured seconds per workload")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	if cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	defer cancel()

	res, err := run(ctx, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes the requested workloads and returns the result line. With
// "all" the metric names are prefixed by workload.
func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", n, workloadNames)
		}
	}
	total := &result{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		r, err := runWorkload(ctx, cfg, workloads[n], out)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", n, err)
		}
		total.Correct = total.Correct && r.Correct
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		for k, v := range r.Metrics {
			if len(names) > 1 {
				k = n + "/" + k
			}
			total.Metrics[k] = v
		}
	}
	return total, nil
}

// runWorkload sets up the stack, verifies its answers, measures, and
// tears everything down again, on success and on every failure path.
func runWorkload(ctx context.Context, cfg config, w *workload, out io.Writer) (res *result, err error) {
	host := hostStamp()
	fmt.Fprintf(out, "== workload %s seed %d seconds %d trace %v\n", w.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(out, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s src=%s\n",
		host.cpu, host.nproc, host.gomaxprocs, host.goVersion, host.commit, host.srcDigest)

	st, err := setupStack(ctx, cfg, w, out)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := st.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	b := newBench(ctx, cfg, w, st, out)
	defer b.close()
	if err := b.verify(); err != nil {
		return nil, err
	}
	if cfg.trace {
		err = b.traced()
	} else {
		err = b.measure()
	}
	if err != nil {
		return nil, err
	}
	b.printReport()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return b.result(), nil
}
