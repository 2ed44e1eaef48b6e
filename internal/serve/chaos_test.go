// Fault-injection chaos suite: hammers the query endpoints while
// injecting corrupt/slow shard-file reads (via internal/faultfs), handler
// panics (via the server's fault hook), and overload far past admission
// capacity, asserting the production-resilience invariants: the server
// never serves a response from a snapshot it did not fully validate,
// never stops answering /healthz, sheds with 429 (never timeouts or 500s)
// when saturated, and drains in-flight requests cleanly on SIGTERM.
//
// These tests arm the process-global faultfs fault, so none of them run
// in t.Parallel.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"alicoco"
	"alicoco/internal/faultfs"
	"alicoco/internal/raceflag"
	"alicoco/internal/snapstore"
)

// chaosServer commits the shared test net into a private three-shard
// snapshot catalog (generation 1) and wires a server with an explicit
// resilience policy around it.
func chaosServer(t *testing.T, mutate func(*serveConfig)) *server {
	t.Helper()
	cfg := cacheCfg(1024)
	if mutate != nil {
		mutate(&cfg)
	}
	s, _ := catalogServer(t, testServer(t).coco, 3, cfg)
	return s
}

// commitAlt commits altNet as the newest generation of s's catalog — every
// shard differs from what s serves, so a reload must read them all — and
// returns that generation's directory.
func commitAlt(t *testing.T, s *server) string {
	t.Helper()
	_, g, err := altNet(t).SaveShardsRetain(s.snapshotDir, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(s.snapshotDir, g.Dir)
}

// altAnswer is GET url as a server over altNet's content answers it.
func altAnswer(t *testing.T, url string) string {
	t.Helper()
	ref, _ := catalogServer(t, altNet(t), 3, cacheCfg(0))
	_, body := get(ref, url)
	return body
}

// corruptFile flips one byte in the middle of path on disk.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestChaosCorruptReloadKeepsServing injects corrupt reads into the shard
// loader for a newer catalog generation while the refresh loop fires as
// fast as it can and clients hammer /search and /healthz: every query
// answer must stay byte-identical to the last good generation, /healthz
// must never miss, the breaker must open (re-anchoring serving on
// generation 1 and skiplisting generation 2), and once the publisher
// ships a fresh generation a manual reload must publish it and close the
// breaker again.
func TestChaosCorruptReloadKeepsServing(t *testing.T) {
	s := chaosServer(t, func(cfg *serveConfig) {
		cfg.retries = 2
		cfg.backoffBase = time.Millisecond
		cfg.backoffMax = 4 * time.Millisecond
		cfg.breakerThreshold = 3
		cfg.breakerCooldown = time.Hour // stays open until the manual probe
		cfg.quarantineAfter = 0         // keep the files in place for this test
	})
	const url = "/search?q=outdoor+barbecue"
	_, wantSearch := get(s, url)
	wantAlt := altAnswer(t, url)
	before := s.coco.ServingInfo()

	// Every read of generation 2's shard files comes back corrupted at
	// byte 512 — deep enough to pass the header, so the CRC/structure
	// validation has to catch it.
	genDir := commitAlt(t, s)
	restore := faultfs.Inject(faultfs.Fault{PathContains: filepath.Join(genDir, "shard-"), CorruptAt: 512})
	defer restore()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.refreshLoop(2*time.Millisecond, done)
	}()

	errc := make(chan error, 8)
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if code, body := get(s, url); code != http.StatusOK || body != wantSearch {
					errc <- fmt.Errorf("search during corrupt reloads: status %d body %q", code, body)
					return
				}
				if code, _ := get(s, "/healthz"); code != http.StatusOK {
					errc <- fmt.Errorf("healthz went down during corrupt reloads: %d", code)
					return
				}
			}
		}()
	}

	// Let the refresh loop chew on the corrupt files until the breaker
	// opens and it stops attempting.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s.resilienceInfo().Reload.Breaker.State == "open" {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	close(done)
	wg.Wait()
	ri := s.resilienceInfo()
	if ri.Reload.Failures == 0 || ri.Reload.Breaker.State != "open" {
		t.Fatalf("breaker never opened under corrupt reloads: %+v", ri.Reload)
	}
	if got := s.coco.ServingInfo(); got.CatalogGen != before.CatalogGen || got.Checksum != before.Checksum {
		t.Fatalf("corrupt reload moved serving off generation %d (%s): %+v", before.CatalogGen, before.Checksum, got)
	}
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// Disarm the fault. Generation 2 stays skiplisted, so a manual reload
	// holds; a fresh commit clears the hold, and the operator's POST
	// /reload (the half-open probe) publishes it and re-closes the breaker.
	restore()
	if code, body := post(s, "/reload", ""); code != http.StatusOK || !strings.Contains(body, "held:") {
		t.Fatalf("manual reload of the skiplisted generation: %d %s, want a hold", code, body)
	}
	commitAlt(t, s)
	if code, body := post(s, "/reload", ""); code != http.StatusOK {
		t.Fatalf("manual reload after disarm: status %d: %s", code, body)
	}
	if st := s.resilienceInfo().Reload.Breaker; st.State != "closed" || st.ConsecutiveFailures != 0 {
		t.Fatalf("breaker did not close after good publish: %+v", st)
	}
	if code, body := get(s, url); code != http.StatusOK || body != wantAlt {
		t.Fatalf("search after recovery: status %d body %q", code, body)
	}
}

// TestChaosSlowReloadKeepsServing: a slow disk (injected per-read delay on
// a newer generation's shard files) must stall only the reload, never the
// query path.
func TestChaosSlowReloadKeepsServing(t *testing.T) {
	s := chaosServer(t, nil)
	const url = "/search?q=outdoor+barbecue"
	_, wantSearch := get(s, url)
	wantAlt := altAnswer(t, url)
	genDir := commitAlt(t, s)
	// Shard loads read through a buffer, so a reload makes only a few
	// reads; each must be slow enough that the reload visibly crawls.
	defer faultfs.Inject(faultfs.Fault{PathContains: filepath.Join(genDir, "shard-"), Delay: 10 * time.Millisecond})()

	reloadDone := make(chan struct{})
	go func() {
		defer close(reloadDone)
		if code, body := post(s, "/reload", ""); code != http.StatusOK {
			t.Errorf("slow reload failed: %d %s", code, body)
		}
	}()
	// While the reload crawls through its delayed reads, queries answer
	// instantly from the currently published snapshot; once it swaps, from
	// the new one.
	served := 0
	for {
		select {
		case <-reloadDone:
		default:
			code, body := get(s, url)
			if code != http.StatusOK || (body != wantSearch && body != wantAlt) {
				t.Fatalf("search during slow reload: status %d", code)
			}
			if body == wantSearch {
				served++
			}
			continue
		}
		break
	}
	if served == 0 {
		t.Skip("reload finished before any query ran; nothing proven this round")
	}
	if got := s.coco.ServingInfo().CatalogGen; got != 2 {
		t.Fatalf("slow reload never published: serving gen %d", got)
	}
}

// TestChaosQuarantineAndRecovery drives the full bad-file story on a
// catalog: a shard file corrupted on disk in the newest generation fails
// reload quarantineAfter times and is renamed aside via
// snapstore.QuarantinePath; the next failure opens the breaker (serving
// re-anchors on the older generation and skiplists the bad one); answers
// stay byte-identical throughout; and once the operator restores the file
// and re-admits the generation, the next reload closes the breaker.
func TestChaosQuarantineAndRecovery(t *testing.T) {
	s := chaosServer(t, func(cfg *serveConfig) {
		cfg.quarantineAfter = 2
		cfg.breakerThreshold = 3
		cfg.breakerCooldown = time.Hour
	})
	const url = "/search?q=outdoor+barbecue"
	_, wantSearch := get(s, url)
	wantAlt := altAnswer(t, url)
	genDir := commitAlt(t, s)
	victim := filepath.Join(genDir, "shard-0001.fz")
	good, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	quarantined := snapstore.QuarantinePath(victim, 2)
	corruptFile(t, victim)

	for i := 0; i < 2; i++ {
		if _, err := s.tryReload(); err == nil {
			t.Fatalf("reload %d of corrupt shard succeeded", i)
		}
	}
	// Second consecutive failure of shard 1 crossed quarantineAfter: the
	// bad file is renamed aside, the original path is gone.
	if _, err := os.Stat(quarantined); err != nil {
		t.Fatalf("bad shard not quarantined at %s: %v", quarantined, err)
	}
	if _, err := os.Stat(victim); !os.IsNotExist(err) {
		t.Fatalf("bad shard still at original path: %v", err)
	}
	if got := s.resilienceInfo().Reload.Quarantined; got != 1 {
		t.Fatalf("quarantine count %d, want 1", got)
	}
	// The next reload fails on the missing file — which must NOT
	// quarantine anything else or panic — and opens the breaker.
	if _, err := s.tryReload(); err == nil {
		t.Fatal("reload with a missing shard file succeeded")
	}
	ri := s.resilienceInfo()
	if ri.Reload.Quarantined != 1 || ri.Reload.Breaker.State != "open" {
		t.Fatalf("after quarantine: %+v", ri.Reload)
	}
	// Serving never flinched.
	if code, body := get(s, url); code != http.StatusOK || body != wantSearch {
		t.Fatalf("search after quarantine: status %d", code)
	}
	if g := s.coco.ServingInfo().CatalogGen; g != 1 {
		t.Fatalf("serving gen %d with no good publish, want 1", g)
	}

	// The operator drops the good file back and re-admits generation 2;
	// the next reload finds it current and closes the breaker.
	if err := os.WriteFile(victim, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, body := post(s, "/rollback?gen=2", ""); code != http.StatusOK {
		t.Fatalf("re-admitting generation 2: %d %s", code, body)
	}
	if _, err := s.tryReload(); err != nil {
		t.Fatalf("reload after restore: %v", err)
	}
	ri = s.resilienceInfo()
	if ri.Reload.Breaker.State != "closed" || ri.Reload.ConsecutiveFailures != 0 {
		t.Fatalf("breaker did not recover: %+v", ri.Reload)
	}
	if code, body := get(s, url); code != http.StatusOK || body != wantAlt {
		t.Fatalf("search after recovery: status %d body %q", code, body)
	}
}

// TestChaosPanicRecovery injects panics into every Nth search via the
// fault hook, over real HTTP connections: panicking requests answer 500
// (the connection survives for keep-alive reuse), healthy requests keep
// answering 200, /healthz never misses, and the panic counter matches.
func TestChaosPanicRecovery(t *testing.T) {
	s := chaosServer(t, nil)
	var n atomic.Uint64
	s.hook = func(op string) {
		if op == "search" && n.Add(1)%3 == 0 {
			panic("chaos: injected handler panic")
		}
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	client := ts.Client()

	var got500, got200 int
	for i := 0; i < 30; i++ {
		resp, err := client.Get(ts.URL + "/search?q=outdoor+barbecue")
		if err != nil {
			t.Fatalf("request %d died (connection torn down?): %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			got200++
		case http.StatusInternalServerError:
			got500++
		default:
			t.Fatalf("request %d: unexpected status %d", i, resp.StatusCode)
		}
		hr, err := client.Get(ts.URL + "/healthz")
		if err != nil || hr.StatusCode != http.StatusOK {
			t.Fatalf("healthz during panic storm: %v %v", hr, err)
		}
		io.Copy(io.Discard, hr.Body)
		hr.Body.Close()
	}
	if got500 == 0 || got200 == 0 {
		t.Fatalf("panic injection did not exercise both paths: %d ok, %d panicked", got200, got500)
	}
	if int(s.panics.Load()) != got500 {
		t.Fatalf("panics recovered %d, 500s served %d", s.panics.Load(), got500)
	}
}

// TestChaosOverloadSheds drives 4x the admission capacity of deliberately
// slow cache-missing requests: the overflow is shed with 429 +
// Retry-After — never a 500, never a hung request — /healthz keeps
// answering, /readyz reports saturation, and once the storm passes the
// server admits work again.
func TestChaosOverloadSheds(t *testing.T) {
	const capacity, queue = 2, 1
	release := make(chan struct{})
	s := chaosServer(t, func(cfg *serveConfig) {
		cfg.cacheSize = 0 // force every request through admission
		cfg.maxInflight = capacity
		cfg.queueDepth = queue
		cfg.deadline = 30 * time.Second // shed on saturation, not deadline
	})
	s.hook = func(op string) {
		if op == "search.engine" {
			<-release // hold the engine slot until the test lets go
		}
	}
	h := s.handler()

	const total = 4 * (capacity + queue)
	codes := make(chan int, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?q=outdoor+barbecue", nil))
			codes <- rec.Code
		}()
	}
	// Wait until the gate is fully saturated: capacity held + queue full.
	deadline := time.Now().Add(10 * time.Second)
	for !s.gate.Saturated() {
		if time.Now().After(deadline) {
			t.Fatal("gate never saturated")
		}
		time.Sleep(time.Millisecond)
	}
	if code, _ := get(s, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz under overload: %d", code)
	}
	if code, _ := get(s, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz should report saturation: %d", code)
	}
	// The shed responses (everyone past capacity+queue) are already back.
	shedSeen := 0
	for shedSeen < total-capacity-queue {
		select {
		case code := <-codes:
			if code != http.StatusTooManyRequests {
				t.Fatalf("overloaded request answered %d, want 429", code)
			}
			shedSeen++
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d shed responses arrived", shedSeen)
		}
	}
	// Open the floodgate: the held and queued requests complete OK.
	close(release)
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("admitted request answered %d, want 200", code)
		}
	}
	st := s.gate.Stats()
	if st.Shed == 0 || st.InFlight != 0 || st.Waiting != 0 {
		t.Fatalf("gate state after storm: %+v", st)
	}
	if code, _ := get(s, "/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after storm: %d", code)
	}
	// Retry-After, a JSON Content-Type, and a machine-readable reason ride
	// along with every shed.
	s.hook = nil
	rec := httptest.NewRecorder()
	s.shed(rec, shedSaturated)
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("shed response malformed: %d %v", rec.Code, rec.Header())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("shed Content-Type = %q, want application/json", ct)
	}
	var shedBody struct {
		Error  string `json:"error"`
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &shedBody); err != nil {
		t.Fatalf("shed body not JSON: %v (%q)", err, rec.Body.String())
	}
	if shedBody.Reason != "saturated" || shedBody.Error == "" {
		t.Fatalf("shed body = %+v", shedBody)
	}
	if ra, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || ra < 1 || ra > 30 {
		t.Fatalf("Retry-After = %q, want integer in [1,30]", rec.Header().Get("Retry-After"))
	}
}

// TestChaosOverloadNeverServesStale combines overload shedding with
// reload churn between two distinct nets committed alternately into one
// catalog: every 200 must match one of the two known-good nets
// byte-for-byte — saturation and
// republish may shed or delay a request, never corrupt one.
func TestChaosOverloadNeverServesStale(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos churn in -short mode")
	}
	netA, err := alicoco.Build(alicoco.Options{Seed: 7, ItemsPerCategory: 2, Scenarios: 12, CorpusSentences: 150})
	if err != nil {
		t.Fatal(err)
	}
	netB := altNet(t)
	cfg := cacheCfg(256)
	cfg.maxInflight = 2
	cfg.queueDepth = 2
	s, live := catalogServer(t, netA, 1, cfg)

	srvA, _ := catalogServer(t, netA, 1, cacheCfg(0))
	srvB, _ := catalogServer(t, netB, 1, cacheCfg(0))
	const url = "/search?q=outdoor+barbecue"
	_, canonA := get(srvA, url)
	_, canonB := get(srvB, url)

	h := s.handler()
	stop := make(chan struct{})
	errc := make(chan error, 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
				switch rec.Code {
				case http.StatusOK:
					if b := rec.Body.String(); b != canonA && b != canonB {
						errc <- fmt.Errorf("response matches neither generation: %q", b)
						return
					}
				case http.StatusTooManyRequests:
					// shed under churn: acceptable, retryable
				default:
					errc <- fmt.Errorf("unexpected status %d under churn", rec.Code)
					return
				}
			}
		}()
	}
	for i := 0; i < 8; i++ {
		next := netA
		if i%2 == 0 {
			next = netB
		}
		if _, err := next.SaveShards(live, 1); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reload", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("reload %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

// TestGracefulDrain exercises the full shutdown sequence over a real
// listener: SIGTERM arrives while a slow request is in flight — /readyz
// flips to 503, the slow request still completes 200, and serveListener
// returns nil (clean drain) without waiting for the full drain timeout.
func TestGracefulDrain(t *testing.T) {
	s := chaosServer(t, func(cfg *serveConfig) {
		cfg.cacheSize = 0 // the slow request must reach the engine hook
	})
	inHandler := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.hook = func(op string) {
		if op == "search.engine" {
			once.Do(func() { close(inHandler) })
			<-release
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sigc := make(chan os.Signal, 1)
	served := make(chan error, 1)
	go func() {
		served <- serveListener(s, ln, 5*time.Millisecond, 10*time.Second, sigc)
	}()
	base := "http://" + ln.Addr().String()

	if resp, err := http.Get(base + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %v %v", resp, err)
	}

	slowDone := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Get(base + "/search?q=outdoor+barbecue")
		if err != nil {
			t.Errorf("in-flight request failed during drain: %v", err)
			slowDone <- nil
			return
		}
		slowDone <- resp
	}()
	<-inHandler // the slow request is inside the handler now

	sigc <- syscall.SIGTERM
	// Readiness must fail once draining starts, while the in-flight
	// request is still being served. Poll: the drain flag flips just
	// after the signal is consumed.
	deadline := time.Now().Add(5 * time.Second)
	for !s.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("draining flag never flipped after SIGTERM")
		}
		time.Sleep(time.Millisecond)
	}

	close(release) // let the in-flight request finish
	resp := <-slowDone
	if resp == nil {
		t.Fatal("slow request lost")
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "Cards") {
		t.Fatalf("in-flight request during drain: %d %q", resp.StatusCode, body)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("drain returned error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serveListener did not return after drain")
	}
	// The listener is really closed.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still accepting after drain")
	}
}

// TestReadyzDrainingFlag: the readiness probe fails the moment draining
// flips, independent of the gate.
func TestReadyzDrainingFlag(t *testing.T) {
	s := testServer(t)
	if code, _ := get(s, "/readyz"); code != http.StatusOK {
		t.Fatalf("readyz on healthy server: %d", code)
	}
	s.draining.Store(true)
	defer s.draining.Store(false)
	if code, _ := get(s, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d", code)
	}
	if code, _ := get(s, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz while draining: %d", code)
	}
}

// TestStatsResilienceSection: the /stats payload exposes the resilience
// counters with sane shapes.
func TestStatsResilienceSection(t *testing.T) {
	s := chaosServer(t, nil)
	var resp struct {
		Resilience resilienceInfo `json:"resilience"`
	}
	_, body := get(s, "/stats")
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	ri := resp.Resilience
	if ri.Admission.Capacity == 0 || ri.Admission.QueueDepth == 0 {
		t.Fatalf("admission stats empty: %+v", ri.Admission)
	}
	if ri.Reload.Breaker.State != "closed" {
		t.Fatalf("fresh breaker state %q", ri.Reload.Breaker.State)
	}
	if ri.Draining {
		t.Fatal("fresh server reports draining")
	}
	// A corrupt reload moves the failure counter through the HTTP surface.
	corruptFile(t, filepath.Join(commitAlt(t, s), "shard-0001.fz"))
	rec := httptest.NewRecorder()
	s.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reload", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("corrupt reload status %d", rec.Code)
	}
	_, body = get(s, "/stats")
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Resilience.Reload.Failures == 0 || resp.Resilience.Reload.ConsecutiveFailures == 0 {
		t.Fatalf("reload failure not counted: %+v", resp.Resilience.Reload)
	}
}

// TestServeCacheHitMiddlewareZeroAllocs guards the acceptance criterion
// that the middleware stack adds no per-request allocations on the
// cache-hit path: the full production handler chain (recover middleware +
// mux + telemetry envelope + handler) measures zero allocs/op — metric
// recording is atomic ops into a pooled wrapper, and the cached-response
// writers assign shared pre-allocated header value slices instead of
// paying Header().Set's per-call []string.
func TestServeCacheHitMiddlewareZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is meaningless under -race (sync.Pool drops items)")
	}
	s := testServer(t)
	h := s.handler()
	req := httptest.NewRequest(http.MethodGet, "/search?q=outdoor+barbecue", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req) // warm: populate caches and grow the recorder
	if rec.Code != http.StatusOK {
		t.Fatalf("warmup status %d", rec.Code)
	}
	allocs := testing.AllocsPerRun(200, func() {
		rec.Body.Reset()
		h.ServeHTTP(rec, req)
	})
	if allocs > 0 {
		t.Fatalf("cache-hit path through middleware: %.1f allocs/op, want 0", allocs)
	}
}
