package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alicoco"
	"alicoco/internal/snapstore"
)

// newCatalogServer commits gens generations (each with different content)
// into a snapshot store and starts a server over it with the snapstore
// lifecycle wired up, as `cocoserve -snapshot-dir <store>` would.
func newCatalogServer(t *testing.T, gens int) (*server, *alicoco.CoCo, string) {
	t.Helper()
	coco, err := alicoco.Build(alicoco.Small())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := coco.SaveShards(dir, 3); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < gens; i++ {
		if _, err := coco.InferImplicitRelations(); err != nil {
			t.Fatal(err)
		}
		if _, err := coco.SaveShards(dir, 3); err != nil {
			t.Fatal(err)
		}
	}
	serving, err := alicoco.LoadShardedFrozen(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(serving, dir, alicoco.DefaultQueryCacheCapacity)
	if s.store == nil {
		t.Fatal("catalog store not detected")
	}
	return s, coco, dir
}

// statsSnapstore fetches and decodes the /stats "snapstore" section.
func statsSnapstore(t *testing.T, s *server) snapstoreInfo {
	t.Helper()
	var resp struct {
		Snapstore snapstoreInfo `json:"snapstore"`
	}
	code, body := get(s, "/stats")
	if code != http.StatusOK || json.Unmarshal([]byte(body), &resp) != nil {
		t.Fatalf("stats: %d %s", code, body)
	}
	return resp.Snapstore
}

// TestRollbackEndpoint: POST /rollback republishes the previous committed
// generation, /stats reports it, the refresh loop holds on the skiplisted
// newer generation, and a brand-new commit clears the hold.
func TestRollbackEndpoint(t *testing.T) {
	s, coco, dir := newCatalogServer(t, 2)
	if g := s.coco.ServingInfo().CatalogGen; g != 2 {
		t.Fatalf("fresh catalog server serves gen %d, want 2", g)
	}

	code, body := post(s, "/rollback", "")
	if code != http.StatusOK || !strings.Contains(body, `"gen":1`) {
		t.Fatalf("rollback: %d %s", code, body)
	}
	if g := s.coco.ServingInfo().CatalogGen; g != 1 {
		t.Fatalf("serving gen %d after rollback, want 1", g)
	}
	sn := statsSnapstore(t, s)
	if !sn.Enabled || sn.ServingGen != 1 || sn.Rollbacks != 1 || sn.LastRollback == nil {
		t.Fatalf("snapstore stats after rollback: %+v", sn)
	}
	if sn.LastRollback.From != 2 || sn.LastRollback.To != 1 {
		t.Fatalf("last_rollback: %+v", sn.LastRollback)
	}
	var sawBad bool
	for _, g := range sn.Generations {
		if g.ID == 2 && g.Bad {
			sawBad = true
		}
		if g.ID == 1 && !g.Serving {
			t.Fatalf("generation 1 not marked serving: %+v", sn.Generations)
		}
	}
	if !sawBad {
		t.Fatalf("generation 2 not skiplisted after rollback: %+v", sn.Generations)
	}

	// A reload holds instead of rolling forward onto the skiplisted gen.
	src, err := s.tryReload()
	if err != nil || !strings.HasPrefix(src, "held:") {
		t.Fatalf("reload after rollback: %q err=%v, want a hold", src, err)
	}
	if g := s.coco.ServingInfo().CatalogGen; g != 1 {
		t.Fatalf("hold did not hold: serving gen %d", g)
	}

	// A new commit supersedes the skiplist and reloads resume.
	if _, err := coco.SaveShards(dir, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.tryReload(); err != nil {
		t.Fatalf("reload of superseding generation: %v", err)
	}
	if g := s.coco.ServingInfo().CatalogGen; g != 3 {
		t.Fatalf("serving gen %d after superseding commit, want 3", g)
	}

	// Operators can also roll forward by explicit ID.
	if code, body := post(s, "/rollback?gen=2", ""); code != http.StatusOK || !strings.Contains(body, `"gen":2`) {
		t.Fatalf("explicit rollback: %d %s", code, body)
	}
	if code, _ := post(s, "/rollback?gen=abc", ""); code != http.StatusBadRequest {
		t.Fatalf("bad gen parameter: %d, want 400", code)
	}
	if code, _ := get(s, "/rollback"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /rollback: %d, want 405", code)
	}
}

// TestRollbackRequiresCatalog: servers not backed by a generation catalog
// refuse /rollback outright.
func TestRollbackRequiresCatalog(t *testing.T) {
	built := testServer(t)
	if code, _ := post(built, "/rollback", ""); code != http.StatusBadRequest {
		t.Fatalf("rollback without catalog: %d, want 400", code)
	}
}

// TestAutoRollbackOnValidationFailure is the acceptance scenario: a new
// generation that loads cleanly but fails post-swap validation is rolled
// back automatically, the fallback is reported in /stats, the bad
// generation stays skiplisted, and the next good commit recovers.
func TestAutoRollbackOnValidationFailure(t *testing.T) {
	s, coco, dir := newCatalogServer(t, 1)
	poison := errors.New("golden query came back empty")
	s.cfg.validate = func(c *alicoco.CoCo) error {
		if c.ServingInfo().CatalogGen == 2 {
			return poison
		}
		return nil
	}

	// Generation 2: loads and verifies clean — only validation hates it.
	if _, err := coco.InferImplicitRelations(); err != nil {
		t.Fatal(err)
	}
	if _, err := coco.SaveShards(dir, 3); err != nil {
		t.Fatal(err)
	}

	_, err := s.tryReload()
	if err == nil || !strings.Contains(err.Error(), "validation") {
		t.Fatalf("reload of invalid generation: %v, want validation failure", err)
	}
	if g := s.coco.ServingInfo().CatalogGen; g != 1 {
		t.Fatalf("serving gen %d after auto-rollback, want 1", g)
	}
	sn := statsSnapstore(t, s)
	if sn.ValidationFailures != 1 || sn.Rollbacks != 1 || sn.ServingGen != 1 {
		t.Fatalf("snapstore stats after auto-rollback: %+v", sn)
	}
	if sn.LastRollback == nil || !strings.Contains(sn.LastRollback.Reason, "validation") {
		t.Fatalf("last_rollback: %+v", sn.LastRollback)
	}

	// The refresh loop no longer fights the bad generation.
	src, err := s.tryReload()
	if err != nil || !strings.HasPrefix(src, "held:") {
		t.Fatalf("post-rollback reload: %q err=%v, want a hold", src, err)
	}

	// Generation 3 passes validation and serving moves on.
	if _, err := coco.SaveShards(dir, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.tryReload(); err != nil {
		t.Fatalf("reload of fixed generation: %v", err)
	}
	if g := s.coco.ServingInfo().CatalogGen; g != 3 {
		t.Fatalf("serving gen %d, want 3", g)
	}
}

// TestScrubTickRepairsAndReports: one scrubber tick finds injected
// corruption, quarantines and repairs it, and /stats carries the counters
// and the last report.
func TestScrubTickRepairsAndReports(t *testing.T) {
	s, _, dir := newCatalogServer(t, 1)
	gens, err := snapstore.ListGenerations(dir)
	if err != nil || len(gens) != 1 {
		t.Fatalf("generations: %v err=%v", gens, err)
	}
	victim := filepath.Join(dir, gens[0].Dir, "shard-0001.fz")
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-10] ^= 0x40
	if err := os.WriteFile(victim, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s.scrubTick()
	sn := statsSnapstore(t, s)
	if sn.Scrub.Passes != 1 || sn.Scrub.Quarantines != 1 || sn.Scrub.Repairs != 1 || sn.Scrub.Unrepaired != 0 {
		t.Fatalf("scrub stats after corrupt tick: %+v", sn.Scrub)
	}
	if sn.Scrub.Last == nil || len(sn.Scrub.Last.Mismatches) != 1 {
		t.Fatalf("last scrub report: %+v", sn.Scrub.Last)
	}

	// A second tick over the repaired store is clean.
	s.scrubTick()
	sn = statsSnapstore(t, s)
	if sn.Scrub.Passes != 2 || sn.Scrub.Quarantines != 1 || sn.Scrub.Last == nil || !sn.Scrub.Last.Clean() {
		t.Fatalf("scrub stats after clean tick: %+v", sn.Scrub)
	}
}

// TestStatsSnapstoreDisabled: without a catalog the section stays inert —
// a live-built server has no snapshot lifecycle.
func TestStatsSnapstoreDisabled(t *testing.T) {
	built := testServer(t)
	sn := statsSnapstore(t, built)
	if sn.Enabled || sn.Root != "" || len(sn.Generations) != 0 {
		t.Fatalf("snapstore section on a live-built server: %+v", sn)
	}
}

// TestShardReloadHonoursHoldAndValidation: a forced per-shard reload runs
// through the same bookkeeping as a full reload. While the newest
// generation is skiplisted it holds (200 with a "held:" source) instead of
// republishing that generation's content, and a per-shard reload that
// publishes a generation failing post-swap validation is rolled back and
// counted as a consecutive failure.
func TestShardReloadHonoursHoldAndValidation(t *testing.T) {
	s, coco, dir := newCatalogServer(t, 1)
	s.cfg.validate = func(c *alicoco.CoCo) error {
		if g := c.ServingInfo().CatalogGen; g == 2 || g == 3 {
			return errors.New("golden query came back empty")
		}
		return nil
	}
	commit := func() {
		t.Helper()
		if _, err := coco.InferImplicitRelations(); err != nil {
			t.Fatal(err)
		}
		if _, err := coco.SaveShards(dir, 3); err != nil {
			t.Fatal(err)
		}
	}

	// Generation 2 fails validation on a full reload and is rolled back.
	commit()
	if _, err := s.tryReload(); err == nil {
		t.Fatal("reload of invalid generation 2 succeeded")
	}
	before := s.coco.ServingInfo()
	if before.CatalogGen != 1 {
		t.Fatalf("serving gen %d after rollback, want 1", before.CatalogGen)
	}

	// A per-shard reload must hold, not republish generation 2's shard.
	code, body := post(s, "/reload?shard=2", "")
	if code != http.StatusOK || !strings.Contains(body, `"source":"held:`) {
		t.Fatalf("shard reload of skiplisted generation: %d %s, want a hold", code, body)
	}
	if got := s.coco.ServingInfo(); got.CatalogGen != 1 || got.Generation != before.Generation || got.Checksum != before.Checksum {
		t.Fatalf("held shard reload changed serving: %+v -> %+v", before, got)
	}

	// Generation 3 supersedes the skiplist but is invalid too: the
	// per-shard reload publishes it, fails validation, and rolls back.
	commit()
	consec := s.resilienceInfo().Reload.ConsecutiveFailures
	if code, body := post(s, "/reload?shard=0", ""); code != http.StatusInternalServerError || !strings.Contains(body, "validation") {
		t.Fatalf("shard reload of invalid generation 3: %d %s, want a validation failure", code, body)
	}
	if g := s.coco.ServingInfo().CatalogGen; g != 1 {
		t.Fatalf("serving gen %d after invalid shard reload, want 1", g)
	}
	if got := s.resilienceInfo().Reload.ConsecutiveFailures; got != consec+1 {
		t.Fatalf("consecutive reload failures %d -> %d, want +1", consec, got)
	}
}
