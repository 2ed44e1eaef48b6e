// Exported embedding surface: cmd/cocoload (and tests that want a real
// server without a subprocess) runs the same server the cocoserve command
// runs, in-process. This is what lets the chaos drills inject faults via
// internal/faultfs — the injection points are process-global, so the
// server under test must share the process with the driver.
package serve

import (
	"net/http"
	"time"

	"alicoco"
	"alicoco/internal/resilience"
)

// Config is the embedding-facing serving policy. The zero value means
// "production defaults" for every field; Disabled (-1) turns a knob off
// where 0 could not (cache, gate, deadlines).
type Config struct {
	// CacheSize is the per-layer query cache entry budget; 0 means
	// alicoco.DefaultQueryCacheCapacity, Disabled turns caching off.
	CacheSize int
	// Deadline / BatchDeadline bound a cache-missing request's lifetime,
	// queue wait included; 0 means the defaults (2s / 15s), Disabled
	// unbounded.
	Deadline      time.Duration
	BatchDeadline time.Duration
	// MaxInflight engine dispatches run at once, QueueDepth more wait; 0
	// means the defaults (4x / 16x GOMAXPROCS), Disabled no gate.
	MaxInflight int
	QueueDepth  int
	// TargetDelay / ShedInterval tune the gate's adaptive controller; 0
	// means the resilience defaults (5ms / 100ms).
	TargetDelay  time.Duration
	ShedInterval time.Duration
	// SnapshotDir, when non-empty, is the catalog root the facade was
	// loaded from; it wires the crash-safe snapshot store
	// (reload/rollback/scrub against the generation catalog).
	SnapshotDir string
	// SlowQuery, when > 0, logs responses slower than the threshold and
	// counts them in cocoserve_slow_queries_total; 0 disables.
	SlowQuery time.Duration
}

// Disabled turns off a Config knob whose zero value means "default".
const Disabled = -1

func (c Config) toServeConfig() serveConfig {
	cfg := defaultServeConfig()
	cfg.cacheSize = alicoco.DefaultQueryCacheCapacity
	apply := func(dst *int, v int) {
		if v == Disabled {
			*dst = 0
		} else if v != 0 {
			*dst = v
		}
	}
	applyDur := func(dst *time.Duration, v time.Duration) {
		if v == Disabled {
			*dst = 0
		} else if v != 0 {
			*dst = v
		}
	}
	apply(&cfg.cacheSize, c.CacheSize)
	apply(&cfg.maxInflight, c.MaxInflight)
	apply(&cfg.queueDepth, c.QueueDepth)
	applyDur(&cfg.deadline, c.Deadline)
	applyDur(&cfg.batchDeadline, c.BatchDeadline)
	applyDur(&cfg.targetDelay, c.TargetDelay)
	applyDur(&cfg.shedInterval, c.ShedInterval)
	if c.SlowQuery > 0 {
		cfg.slowQuery = c.SlowQuery
	}
	return cfg
}

// Server is an embedded cocoserve instance.
type Server struct{ s *server }

// New wires a server around a built or loaded facade. When cfg.SnapshotDir
// names a generation catalog the snapshot lifecycle (reload diffing,
// rollback, scrubbing) engages exactly as under the cocoserve command.
func New(coco *alicoco.CoCo, cfg Config) *Server {
	return &Server{s: newServerCfg(coco, cfg.SnapshotDir, cfg.toServeConfig())}
}

// Handler is the production handler stack: the full route mux wrapped in
// panic recovery, identical to what the cocoserve command serves.
func (sv *Server) Handler() http.Handler { return sv.s.handler() }

// GateStats snapshots the admission gate (zeros when gating is disabled).
func (sv *Server) GateStats() resilience.GateStats { return sv.s.gate.Stats() }
