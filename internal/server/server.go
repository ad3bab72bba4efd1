// Package server hosts concurrent interactive Darwin rule-discovery
// labelers over HTTP. One read-only core.Engine is shared per loaded
// dataset, so the expensive corpus preprocessing and index build are paid
// once and amortized across every labeler.
//
// The canonical surface is the versioned /v2 API: one handler set generated
// over the public pkg/darwin Labeler interface, serving every labeler as one
// annotator attached to a workspace, with a uniform JSON error envelope
// {code, message, retryable}, batch answers, and paginated list endpoints
// (see v2.go and api/openapi.yaml):
//
//	GET    /v2/datasets                     served datasets (paginated)
//	POST   /v2/labelers                     create {dataset, mode, ...}
//	GET    /v2/labelers                     list live labelers (paginated)
//	GET    /v2/labelers/{id}                labeler status
//	GET    /v2/labelers/{id}/suggestion     pending candidate rule
//	POST   /v2/labelers/{id}/answers        {answers: [{key, accept}...]} batch
//	GET    /v2/labelers/{id}/report         deterministic discovery report
//	GET    /v2/labelers/{id}/export         JSONL labeled corpus
//	DELETE /v2/labelers/{id}                close (detach; frees an unjoined solo workspace)
//
// A solo labeler (mode "session") is a fresh workspace with one annotator;
// a workspace-mode labeler may also join an existing workspace. Either way
// the workspace manager owns it: journaled when a journal is configured,
// replicated, TTL-swept and capped (see internal/workspace and
// internal/journal). Outside /v2 the server answers only GET /healthz
// (liveness, dataset/workspace counts, suggest latency) and GET /metrics.
//
// When Config.Token is set, every /v2/* endpoint requires
// "Authorization: Bearer <token>" (healthz and metrics stay open);
// Config.RatePerSec adds a per-IP token-bucket rate limit across all
// endpoints.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"sort"
	"time"

	"repro/internal/autolabel"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/replicate"
	"repro/internal/workspace"
)

// Dataset is one corpus served by the server: a name and the shared engine
// built over it. The engine (and the corpus and index behind it) is only
// mutated through its own locked entry points (ingest, materialization).
type Dataset struct {
	Name   string
	Engine *core.Engine
}

// Config tunes the server.
type Config struct {
	// DefaultBudget is used for labelers that do not request a budget
	// (0 keeps each engine's configured budget).
	DefaultBudget int
	// MaxSeedRules bounds how many seed rules one create request may carry
	// (default 16), keeping a single request from monopolizing the index
	// write lock.
	MaxSeedRules int

	// JournalPath, when non-empty, makes workspaces durable: every
	// workspace event is appended to this JSONL write-ahead log, and New
	// replays it to recover workspaces from a previous process.
	JournalPath string
	// WorkspaceTTL evicts workspaces — solo labelers included — idle longer
	// than this (default 2h).
	WorkspaceTTL time.Duration
	// MaxWorkspaces bounds the number of live workspaces, solo labelers
	// included (default 1024).
	MaxWorkspaces int
	// CompactEvery compacts the journal (snapshot+truncate) after this many
	// appends (default 4096; negative disables).
	CompactEvery int
	// AttachmentTTL detaches individual annotators idle longer than this
	// during sweeps (0 disables). The detach is journaled, so it replays and
	// replicates like a client-issued one.
	AttachmentTTL time.Duration

	// JobsDir, when non-empty, enables the /v2 labeling-job subsystem:
	// finished outputs live there until their TTL. Job records are
	// journaled in the workspace journal, so JobsDir requires JournalPath.
	// Empty leaves the job endpoints registered but answering 503.
	JobsDir string
	// JobWorkers bounds concurrent labeling-job execution (default 2).
	JobWorkers int
	// JobTTL retains terminal labeling jobs and their outputs (default 1h).
	JobTTL time.Duration

	// ReplicationSync blocks acknowledged workspace writes until the
	// dataset's replication follower acks them (bounded by
	// ReplicationSyncTimeout, default 2s). Only meaningful with a journal;
	// the replication endpoints themselves are active whenever JournalPath
	// is set.
	ReplicationSync        bool
	ReplicationSyncTimeout time.Duration

	// Token, when non-empty, requires "Authorization: Bearer <token>" on
	// every /v2/* endpoint.
	Token string
	// RatePerSec, when positive, rate-limits each client IP to this many
	// requests per second with a burst of RateBurst (default 2×RatePerSec).
	RatePerSec float64
	// RateBurst is the per-IP burst size.
	RateBurst int

	// Daemon labels this process's series in /metrics and request logs
	// (default "darwind"; the router runs its own edge with
	// "darwin-router").
	Daemon string
	// AccessLog, when non-nil, receives one structured line per request
	// (method, route, status, duration, request id).
	AccessLog *slog.Logger
}

// Server is the HTTP front end. It implements http.Handler.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	handler  http.Handler // mux wrapped with auth / rate-limit middleware
	routes   []string     // every registered "METHOD /pattern", sorted
	datasets map[string]*Dataset
	mgr      *workspace.Manager
	labelers *labelerRegistry
	recovery workspace.RecoveryStats
	// repl is the journal-replication node (nil without a journal; the
	// replication endpoints then answer 503).
	repl *replicate.Node
	// jobs is the labeling-job manager (nil without Config.JobsDir; the job
	// endpoints then answer 503). Its records ride the workspace journal.
	jobs *autolabel.Manager
}

// New creates a server over the given datasets. When Config.JournalPath is
// set it opens the journal and recovers all journaled workspaces before
// returning, so the server starts serving with the pre-crash state live.
func New(cfg Config, datasets ...*Dataset) (*Server, error) {
	if len(datasets) == 0 {
		return nil, errors.New("server: at least one dataset is required")
	}
	if cfg.JobsDir != "" && cfg.JournalPath == "" {
		return nil, errors.New("server: JobsDir requires JournalPath: labeling-job records are journaled in the workspace journal")
	}
	if cfg.MaxSeedRules <= 0 {
		cfg.MaxSeedRules = 16
	}
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		datasets: make(map[string]*Dataset, len(datasets)),
		labelers: newLabelerRegistry(),
	}
	engines := make(map[string]*core.Engine, len(datasets))
	for _, d := range datasets {
		if d == nil || d.Engine == nil || d.Name == "" {
			return nil, errors.New("server: dataset must have a name and an engine")
		}
		if _, dup := s.datasets[d.Name]; dup {
			return nil, fmt.Errorf("server: duplicate dataset %q", d.Name)
		}
		s.datasets[d.Name] = d
		engines[d.Name] = d.Engine
	}
	var jw *journal.Writer
	var events []journal.Event
	if cfg.JournalPath != "" {
		var err error
		jw, events, err = journal.Open(cfg.JournalPath, journal.Options{})
		if err != nil {
			return nil, err
		}
	}
	s.mgr = workspace.NewManager(engines, jw, workspace.ManagerConfig{
		TTL:           cfg.WorkspaceTTL,
		MaxWorkspaces: cfg.MaxWorkspaces,
		CompactEvery:  cfg.CompactEvery,
		AttachmentTTL: cfg.AttachmentTTL,
	})
	if len(events) > 0 {
		s.recovery = s.mgr.Recover(events)
		// Re-derive the /v2 labeler registry from the recovered workspaces:
		// attachment labeler ids are a pure function of (workspace,
		// annotator), so clients resume the ids they held before the restart.
		s.rebuildLabelers()
	}
	if jw != nil {
		// Replication rides the journal: stream it out when the router names
		// this shard a primary, keep warm standbys when it names it a
		// follower. Recovers on-disk standbys from a previous process.
		s.repl = replicate.NewNode(replicate.NodeOptions{
			Manager:     s.mgr,
			Journal:     jw,
			Engines:     engines,
			JournalPath: cfg.JournalPath,
			Sync:        cfg.ReplicationSync,
			SyncTimeout: cfg.ReplicationSyncTimeout,
			Logf:        log.Printf,
			LabelersFor: s.labelersFor,
			Adopted:     s.adopted,
			Evicted:     s.evicted,
		})
	}
	// From here on the journal (and replication standbys) are open: a
	// failure must close them again.
	fail := func(err error) (*Server, error) {
		_ = s.Close()
		return nil, err
	}
	if cfg.JobsDir != "" {
		jobs, err := autolabel.NewManager(autolabel.ManagerConfig{
			Dir:     cfg.JobsDir,
			Workers: cfg.JobWorkers,
			TTL:     cfg.JobTTL,
			Logf:    log.Printf,
		}, s.mgr)
		if err != nil {
			return fail(err)
		}
		s.jobs = jobs
	}
	s.handle("GET /healthz", s.handleHealthz)
	s.handle("GET /metrics", obs.Default().Handler().ServeHTTP)
	s.registerV2()
	s.registerReplication()
	sort.Strings(s.routes)
	if cfg.Daemon == "" {
		cfg.Daemon = "darwind"
		s.cfg.Daemon = "darwind"
	}
	// Live-object gauges are callbacks so /metrics and /healthz read the
	// same stores at scrape time. Last registration wins, so repeated server
	// construction in tests tracks the newest instance.
	obs.Default().GaugeFunc("darwin_workspaces_live",
		"Live workspaces in the manager.",
		func() float64 { return float64(s.mgr.Len()) })
	// Seed the per-dataset corpus and coverage-container gauges; ingest
	// refreshes them on every acknowledged batch.
	s.updateEngineGauges()
	// Instrumentation wraps the auth/rate-limit middleware so 401s and 429s
	// are counted and logged too.
	s.handler = obs.Instrument(obs.Default(), cfg.Daemon, cfg.AccessLog, s.middleware(s.mux))
	return s, nil
}

// handle registers one route and records it for Routes (which the OpenAPI
// honesty test audits against api/openapi.yaml).
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, h)
	s.routes = append(s.routes, pattern)
}

// Routes returns every registered route as "METHOD /pattern", sorted. The
// checked-in OpenAPI spec is tested against this list.
func (s *Server) Routes() []string {
	return append([]string(nil), s.routes...)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// Workspaces exposes the workspace manager (janitor, shutdown flush,
// diagnostics).
func (s *Server) Workspaces() *workspace.Manager { return s.mgr }

// Recovery reports what was replayed from the journal at startup.
func (s *Server) Recovery() workspace.RecoveryStats { return s.recovery }

// Close stops replication (keeping standbys warm on disk), then flushes and
// closes the workspace journal. Call after the HTTP server has drained.
func (s *Server) Close() error {
	if s.jobs != nil {
		// Stop job workers first: an interrupted job keeps no terminal
		// record, so the next process re-runs it to the identical bytes.
		if err := s.jobs.Close(); err != nil {
			log.Printf("server: close job manager: %v", err)
		}
	}
	if s.repl != nil {
		s.repl.Close()
	}
	return s.mgr.Close()
}

// Dataset returns the served dataset by name, or nil when unknown. The
// datasets map is fixed at construction, so this needs no locking.
func (s *Server) Dataset(name string) *Dataset { return s.datasets[name] }

// DatasetNames returns the served dataset names, sorted.
func (s *Server) DatasetNames() []string {
	out := make([]string, 0, len(s.datasets))
	for name := range s.datasets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

type healthJSON struct {
	Status     string   `json:"status"`
	Datasets   []string `json:"datasets"`
	Workspaces int      `json:"workspaces"`
	// Recovered counts workspaces replayed from the journal at startup.
	Recovered int `json:"recovered,omitempty"`
	// Step-latency aggregate across every workspace suggest served (read
	// from the darwin_workspace_suggest_duration_seconds histogram).
	Steps          int64   `json:"steps"`
	LastStepMillis float64 `json:"last_step_ms"`
	AvgStepMillis  float64 `json:"avg_step_ms"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	steps, last, avg := workspace.SuggestStats()
	writeJSON(w, http.StatusOK, healthJSON{
		Status:         "ok",
		Datasets:       s.DatasetNames(),
		Workspaces:     s.mgr.Len(),
		Recovered:      s.recovery.Workspaces,
		Steps:          steps,
		LastStepMillis: millis(last),
		AvgStepMillis:  millis(avg),
	})
}

func millis(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
