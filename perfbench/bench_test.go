package main

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// These tests run the benchmark end to end at alicoco.Small() scale and
// assert that nothing it started outlives it: no listener, no child
// process, no temp directory, no goroutine.

var servingRE = regexp.MustCompile(`serving on (\S+)`)

func runSmall(t *testing.T, ctx context.Context, cfg config) (*result, string, error) {
	t.Helper()
	cfg.small = true
	var out bytes.Buffer
	res, err := run(ctx, cfg, &out)
	return res, out.String(), err
}

// checkNothingLeft asserts the run's resources are all gone.
func checkNothingLeft(t *testing.T, tmp string, out string, goroutines int) {
	t.Helper()
	entries, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("temp entry survived the run: %s", filepath.Join(tmp, e.Name()))
	}
	for _, m := range servingRE.FindAllStringSubmatch(out, -1) {
		if c, err := net.DialTimeout("tcp", m[1], time.Second); err == nil {
			c.Close()
			t.Errorf("listener %s still accepts connections", m[1])
		}
	}
	if kids := childProcesses(t); len(kids) > 0 {
		t.Errorf("child processes survived the run: %v", kids)
	}
	// Connection goroutines exit asynchronously once their sockets close.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines survived the run (had %d):\n%s", n-goroutines, goroutines, buf[:runtime.Stack(buf, true)])
	}
}

// childProcesses lists the processes whose parent is this one.
func childProcesses(t *testing.T) []int {
	t.Helper()
	dirs, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil || len(dirs) == 0 {
		t.Skip("no /proc to inspect")
	}
	self := os.Getpid()
	var kids []int
	for _, d := range dirs {
		b, err := os.ReadFile(d)
		if err != nil {
			continue // exited meanwhile
		}
		// pid (comm) state ppid ...; comm may hold spaces, so split after ')'.
		s := string(b)
		f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(f) > 1 {
			if ppid, _ := strconv.Atoi(f[1]); ppid == self {
				pid, _ := strconv.Atoi(strings.Fields(s)[0])
				kids = append(kids, pid)
			}
		}
	}
	return kids
}

func TestRunLeavesNothingBehind(t *testing.T) {
	for _, tc := range []struct {
		workload string
		trace    bool
	}{
		{"hot-zipf", false},
		{"miss-scan", true},
		{"reload-churn", false},
	} {
		name := tc.workload
		if tc.trace {
			name += "/trace"
		}
		t.Run(name, func(t *testing.T) {
			tmp := t.TempDir()
			t.Setenv("TMPDIR", tmp)
			goroutines := runtime.NumGoroutine()
			res, out, err := runSmall(t, context.Background(), config{workload: tc.workload, seed: 1, seconds: 2, trace: tc.trace})
			if err != nil {
				t.Fatalf("run: %v\n%s", err, out)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("result correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
			}
			if !strings.Contains(out, "answers_digest") {
				t.Errorf("no answers_digest in the report:\n%s", out)
			}
			checkNothingLeft(t, tmp, out, goroutines)
		})
	}
}

func TestInterruptedRunLeavesNothingBehind(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	goroutines := runtime.NumGoroutine()
	// A SIGINT or SIGTERM cancels the run's context; so does the run
	// budget. Cancel mid-measurement.
	ctx, cancel := context.WithTimeout(context.Background(), 1500*time.Millisecond)
	defer cancel()
	_, out, err := runSmall(t, ctx, config{workload: "reload-churn", seed: 1, seconds: 30})
	if err == nil {
		t.Fatalf("interrupted run succeeded:\n%s", out)
	}
	checkNothingLeft(t, tmp, out, goroutines)
}

func TestSameSeedSameAnswers(t *testing.T) {
	digest := regexp.MustCompile(`answers_digest (\w+)`)
	var got []string
	for i := 0; i < 2; i++ {
		t.Setenv("TMPDIR", t.TempDir())
		_, out, err := runSmall(t, context.Background(), config{workload: "miss-scan", seed: 7, seconds: 1})
		if err != nil {
			t.Fatalf("run: %v\n%s", err, out)
		}
		m := digest.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("no digest:\n%s", out)
		}
		got = append(got, m[1])
	}
	if got[0] != got[1] {
		t.Errorf("answers_digest differs across runs with one seed: %v", got)
	}
}

func TestNominalFailureIsWrongAnswer(t *testing.T) {
	var out bytes.Buffer
	b := &bench{out: &out}
	b.nominalFailures(&phaseResult{name: "nominal", recs: []rec{{status: 200}, {status: 429, bad: true}}, sent: 2, failed: 1})
	if res := b.result(); res.Correct {
		t.Errorf("a failed request at the nominal rate left the run correct:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "WRONG ANSWER (nominal) op 1 search: status 429") {
		t.Errorf("failure not reported:\n%s", out.String())
	}
}
