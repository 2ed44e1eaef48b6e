package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"alicoco"
)

var (
	snapOnce   sync.Once
	snapErr    error
	snapRoot   string
	snapLoaded *server // serves from the loaded catalog, reload re-reads it
)

// snapshotFixture saves the shared built net to a one-shard snapshot
// catalog once and loads a second, snapshot-backed server from it.
func snapshotFixture(t *testing.T) (built *server, loaded *server, root string) {
	t.Helper()
	built = testServer(t)
	snapOnce.Do(func() {
		// The fixture outlives the first test that builds it, so it cannot
		// live in that test's TempDir.
		snapRoot, snapErr = os.MkdirTemp("", "cocoserve-snap-")
		if snapErr != nil {
			return
		}
		if _, snapErr = built.coco.SaveShards(snapRoot, 1); snapErr != nil {
			return
		}
		coco, err := alicoco.LoadShardedFrozen(snapRoot)
		if err != nil {
			snapErr = err
			return
		}
		snapLoaded = &server{coco: coco, snapshotDir: snapRoot}
	})
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	return built, snapLoaded, snapRoot
}

// catalogServer commits c into a fresh snapshot catalog as a shards-way
// partition and serves it under cfg, as `cocoserve -snapshot-dir` would.
func catalogServer(t testing.TB, c *alicoco.CoCo, shards int, cfg serveConfig) (*server, string) {
	t.Helper()
	root := t.TempDir()
	if _, err := c.SaveShards(root, shards); err != nil {
		t.Fatal(err)
	}
	coco, err := alicoco.LoadShardedFrozen(root)
	if err != nil {
		t.Fatal(err)
	}
	return newServerCfg(coco, root, cfg), root
}

// cacheCfg is the default policy with the given per-layer cache size.
func cacheCfg(size int) serveConfig {
	cfg := defaultServeConfig()
	cfg.cacheSize = size
	return cfg
}

var (
	altOnce sync.Once
	altCoco *alicoco.CoCo
	altErr  error
)

// altNet is a second, deliberately different built net (another seed and
// shape), shared by the tests that need a newer catalog generation whose
// every shard differs from the served one.
func altNet(t testing.TB) *alicoco.CoCo {
	t.Helper()
	altOnce.Do(func() {
		altCoco, altErr = alicoco.Build(alicoco.Options{Seed: 11, ItemsPerCategory: 3, Scenarios: 12, CorpusSentences: 150})
	})
	if altErr != nil {
		t.Fatal(altErr)
	}
	return altCoco
}

func get(s *server, url string) (int, string) {
	rec := httptest.NewRecorder()
	s.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec.Code, rec.Body.String()
}

// TestSnapshotServesIdenticalAnswers: a cocoserve started from a one-shard
// -snapshot-dir catalog must answer every endpoint byte-identically to the
// freshly built net it was saved from.
func TestSnapshotServesIdenticalAnswers(t *testing.T) {
	built, loaded, _ := snapshotFixture(t)

	urls := []string{
		"/search?q=outdoor+barbecue",
		"/search?q=winter+coat",
		"/concept?name=outdoor+barbecue",
		"/hypernyms?name=coat",
		"/hypernyms?name=grill",
	}
	sessions := built.coco.SampleSessions(3)
	for _, sess := range sessions {
		parts := make([]string, len(sess))
		for i, id := range sess {
			parts[i] = strconv.Itoa(id)
		}
		urls = append(urls, "/recommend?items="+strings.Join(parts, ",")+"&k=5")
	}
	for _, url := range urls {
		bCode, bBody := get(built, url)
		lCode, lBody := get(loaded, url)
		if bCode != lCode {
			t.Fatalf("%s: status %d (built) vs %d (snapshot)", url, bCode, lCode)
		}
		if bBody != lBody {
			t.Fatalf("%s: answers differ\nbuilt:    %s\nsnapshot: %s", url, bBody, lBody)
		}
	}
	// /stats carries per-server snapshot metadata (source, checksum, age),
	// so only the net-shape portion must match byte-for-byte semantics.
	var bStats, lStats alicoco.Stats
	if _, body := get(built, "/stats"); json.Unmarshal([]byte(body), &bStats) != nil {
		t.Fatal("bad built stats")
	}
	if _, body := get(loaded, "/stats"); json.Unmarshal([]byte(body), &lStats) != nil {
		t.Fatal("bad loaded stats")
	}
	if bStats.Relations != lStats.Relations || bStats.Items != lStats.Items ||
		bStats.EConcepts != lStats.EConcepts || bStats.Primitives != lStats.Primitives {
		t.Fatalf("net stats differ:\nbuilt    %+v\nsnapshot %+v", bStats, lStats)
	}
}

// TestStatsSnapshotSection checks the operational metadata /stats now
// exposes: a built server reports source "build" with no checksum, a
// catalog-loaded one reports source "shards" with the content checksum and
// its catalog root, and both report serving counts, a sane age, and their
// one-shard partition.
func TestStatsSnapshotSection(t *testing.T) {
	built, loaded, root := snapshotFixture(t)
	type statsResp struct {
		Snapshot snapshotInfo `json:"snapshot"`
	}
	var b, l statsResp
	if _, body := get(built, "/stats"); json.Unmarshal([]byte(body), &b) != nil {
		t.Fatal("bad built stats")
	}
	if _, body := get(loaded, "/stats"); json.Unmarshal([]byte(body), &l) != nil {
		t.Fatal("bad loaded stats")
	}
	if b.Snapshot.Source != "build" || b.Snapshot.Checksum != "" || b.Snapshot.Dir != "" {
		t.Fatalf("built snapshot section: %+v", b.Snapshot)
	}
	if l.Snapshot.Source != "shards" || l.Snapshot.Checksum == "" || l.Snapshot.Dir != root {
		t.Fatalf("loaded snapshot section: %+v", l.Snapshot)
	}
	for _, sn := range []snapshotInfo{b.Snapshot, l.Snapshot} {
		if sn.Nodes == 0 || sn.Edges == 0 || sn.Generation == 0 {
			t.Fatalf("empty serving counts: %+v", sn)
		}
		if len(sn.Shards) != 1 || sn.Shards[0].Nodes != sn.Nodes {
			t.Fatalf("one-shard partition not reported: %+v", sn.Shards)
		}
		if sn.AgeSeconds < 0 || sn.PublishedAt == "" {
			t.Fatalf("bad publish age: %+v", sn)
		}
	}
	if b.Snapshot.Nodes != l.Snapshot.Nodes || b.Snapshot.Edges != l.Snapshot.Edges {
		t.Fatal("built and loaded servers should serve the same net shape")
	}
}

// TestReloadRejectsCorruptSnapshot is the checksum-verification guard: a
// reload of a newer catalog generation whose shard file is corrupted must
// fail without touching the serving state, and the generation must not
// advance.
func TestReloadRejectsCorruptSnapshot(t *testing.T) {
	s, root := catalogServer(t, testServer(t).coco, 1, serveConfig{})
	coco := s.coco
	wantCode, wantSearch := get(s, "/search?q=outdoor+barbecue")
	genBefore := coco.ServingInfo().Generation

	// Generation 2 holds a different net; flip one byte in the middle of
	// its shard file: the CRC-32 check (or a structural validation before
	// it) must reject the load.
	if _, err := altNet(t).SaveShards(root, 1); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, filepath.Join(root, "gen-000002", "shard-0000.fz"))
	rec := httptest.NewRecorder()
	s.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reload", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("corrupt reload: status %d, want 500 (%s)", rec.Code, rec.Body.String())
	}
	if got := coco.ServingInfo().Generation; got != genBefore {
		t.Fatalf("corrupt reload advanced generation %d -> %d", genBefore, got)
	}
	// Serving is untouched: the same query still answers identically.
	code, body := get(s, "/search?q=outdoor+barbecue")
	if code != wantCode || body != wantSearch {
		t.Fatal("serving state changed after rejected reload")
	}
}

// TestReloadHotSwapUnderLoad hammers the query endpoints from several
// goroutines while the publisher keeps committing generations of the same
// net and /reload swaps each in — alternating a full reload with a forced
// re-read of the shard file: every query must keep succeeding with a
// correct answer (zero downtime), and every reload must succeed. Run under
// -race this also proves the swap is sound.
func TestReloadHotSwapUnderLoad(t *testing.T) {
	built := testServer(t)
	loaded, root := catalogServer(t, built.coco, 1, serveConfig{})
	_, wantSearch := get(loaded, "/search?q=outdoor+barbecue")

	stop := make(chan struct{})
	errc := make(chan error, 16)
	var wg sync.WaitGroup
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
				code, body := get(loaded, "/search?q=outdoor+barbecue")
				if code != http.StatusOK {
					errc <- fmt.Errorf("search status %d during reload", code)
					return
				}
				if body != wantSearch {
					errc <- fmt.Errorf("search answer changed during reload")
					return
				}
				if code, _ := get(loaded, "/stats"); code != http.StatusOK {
					errc <- fmt.Errorf("stats status %d during reload", code)
					return
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		url := "/reload?shard=0"
		if i%2 == 0 {
			if _, err := built.coco.SaveShards(root, 1); err != nil {
				t.Fatal(err)
			}
			url = "/reload"
		}
		genBefore := loaded.coco.ServingInfo().Generation
		rec := httptest.NewRecorder()
		loaded.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("reload %d: status %d: %s", i, rec.Code, rec.Body.String())
			break
		}
		var resp struct {
			Status   string       `json:"status"`
			Snapshot snapshotInfo `json:"snapshot"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Errorf("reload %d: bad response: %v", i, err)
			break
		}
		if resp.Status != "reloaded" || resp.Snapshot.Nodes == 0 || resp.Snapshot.Edges == 0 || resp.Snapshot.Checksum == "" {
			t.Errorf("reload %d: unexpected response %+v", i, resp)
			break
		}
		if resp.Snapshot.Generation <= genBefore {
			t.Errorf("reload %d (%s) swapped nothing: generation %d", i, url, resp.Snapshot.Generation)
			break
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

// TestReloadRefreezesLiveNet: without a snapshot file the endpoint falls
// back to re-freezing the live net.
func TestReloadRefreezesLiveNet(t *testing.T) {
	built := testServer(t)
	rec := httptest.NewRecorder()
	built.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reload", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "refreeze") {
		t.Fatalf("expected refreeze source: %s", rec.Body.String())
	}
}

func TestReloadRequiresPOST(t *testing.T) {
	_, loaded, _ := snapshotFixture(t)
	if code, _ := get(loaded, "/reload"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /reload: status %d, want 405", code)
	}
}

// --- parameter validation (satellite bugfixes) --------------------------

func TestHandleRecommendRejectsNegativeIDs(t *testing.T) {
	s := testServer(t)
	for _, q := range []string{"items=-1", "items=3,-7,2", "items=-0x2"} {
		if code, _ := get(s, "/recommend?"+q); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, code)
		}
	}
}

func TestHandleRecommendValidatesK(t *testing.T) {
	s := testServer(t)
	sessions := s.coco.SampleSessions(1)
	if len(sessions) == 0 || len(sessions[0]) == 0 {
		t.Fatal("no sessions")
	}
	parts := make([]string, len(sessions[0]))
	for i, id := range sessions[0] {
		parts[i] = strconv.Itoa(id)
	}
	items := strings.Join(parts, ",")

	for _, k := range []string{"0", "-3", "abc"} {
		if code, _ := get(s, "/recommend?items="+items+"&k="+k); code != http.StatusBadRequest {
			t.Fatalf("k=%s: status %d, want 400", k, code)
		}
	}
	// Huge k is capped, not rejected: the request succeeds with a bounded
	// result set.
	code, body := get(s, "/recommend?items="+items+"&k=999999")
	if code != http.StatusOK {
		t.Fatalf("huge k: status %d: %s", code, body)
	}
	var r alicoco.Recommendation
	if err := json.Unmarshal([]byte(body), &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Card.Items) > maxRecommendK {
		t.Fatalf("huge k not capped: %d items", len(r.Card.Items))
	}
}

func TestHandleConceptEmptyNameIsBadRequest(t *testing.T) {
	s := testServer(t)
	if code, _ := get(s, "/concept"); code != http.StatusBadRequest {
		t.Fatalf("missing name: status %d, want 400", code)
	}
	if code, _ := get(s, "/concept?name="); code != http.StatusBadRequest {
		t.Fatalf("empty name: status %d, want 400", code)
	}
	if code, _ := get(s, "/concept?name=nope"); code != http.StatusNotFound {
		t.Fatalf("missing concept: status %d, want 404", code)
	}
}
