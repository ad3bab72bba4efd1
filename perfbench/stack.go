package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/embedding"
	"repro/internal/grammar"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/tokensregex"
	"repro/internal/workspace"
	"repro/pkg/darwin"
)

// workspaceTTL is the shards' -workspace-ttl: spent workspaces are swept
// shortly after their last use (by a janitor the runner starts, as darwind
// does), so the live set, the compaction snapshots and the restart replay
// stay the same size however long a run lasts.
const workspaceTTL = 10 * time.Second

// compactEvery is the shards' -compact-every: a quarter of darwind's
// default, so that every run spans several journal compactions.
const compactEvery = 1024

// engineConfig mirrors darwind's per-dataset engine construction (its flag
// defaults, with -sketch-depth as the one setting a workload chooses).
func engineConfig(seed int64, sketchDepth int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Grammars = []grammar.Grammar{tokensregex.New()}
	cfg.Budget = 100
	cfg.NumCandidates = 2000
	cfg.SketchDepth = sketchDepth
	cfg.Seed = seed
	cfg.Classifier = classifier.Config{Epochs: 10, LearningRate: 0.3, L2: 1e-4, Seed: seed}
	cfg.Embedding = embedding.Config{Dim: 32, Window: 4, MinCount: 2, Seed: seed}
	return cfg
}

// shardNode is one darwind-equivalent shard: a journaled server.Server
// behind a loopback HTTP listener whose handler can be swapped, so the shard
// can be restarted at the same URL.
type shardNode struct {
	name    string
	dir     string
	cfg     server.Config
	srv     *server.Server
	ts      *httptest.Server
	handler atomic.Pointer[http.Handler]
}

func (n *shardNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*n.handler.Load()).ServeHTTP(w, r)
}

func (n *shardNode) serve(h http.Handler) { n.handler.Store(&h) }

// stack is the deployed path: SDK client → router /v2 handler → two
// journaled, replicated shards over loopback HTTP.
type stack struct {
	in        *inputs
	shards    []*shardNode
	router    *shard.Router
	front     *httptest.Server
	client    *darwin.Client
	sdkHTTP   *http.Client
	routerRT  *http.Transport
	tr        *tracer
	sentences int // sentences held by both shards' engines after setup
}

// buildStack constructs the whole topology under dir and returns once the
// router serves its first request. The corpora are generated before the
// clock starts; everything else (engine builds on both shards, server.New,
// router, replication placement) is set-up.
func buildStack(ctx context.Context, in *inputs, dir string, tr *tracer) (*stack, time.Duration, error) {
	corpora := []*corpus.Corpus{in.corpus(), in.corpus()}
	start := time.Now()
	st := &stack{in: in, tr: tr}
	engines := make([]*core.Engine, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range engines {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			engines[i], errs[i] = core.New(corpora[i], engineConfig(in.seed, in.w.sketchDepth))
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, 0, fmt.Errorf("build engine: %w", err)
		}
	}
	specs := make([]shard.Spec, 2)
	for i, name := range []string{"alpha", "beta"} {
		n := &shardNode{name: name, dir: filepath.Join(dir, name)}
		if err := os.MkdirAll(n.dir, 0o755); err != nil {
			st.close()
			return nil, 0, err
		}
		n.cfg = server.Config{
			JournalPath:            filepath.Join(n.dir, "journal.jsonl"),
			JobsDir:                filepath.Join(n.dir, "jobs"),
			MaxWorkspaces:          4096,
			WorkspaceTTL:           workspaceTTL,
			CompactEvery:           compactEvery,
			ReplicationSync:        true,
			ReplicationSyncTimeout: 2 * time.Second,
		}
		srv, err := server.New(n.cfg, &server.Dataset{Name: in.w.dataset, Engine: engines[i]})
		if err != nil {
			st.close()
			return nil, 0, fmt.Errorf("shard %s: %w", name, err)
		}
		n.srv = srv
		n.serve(tr.wrapShard(name, srv))
		n.ts = httptest.NewServer(n)
		st.shards = append(st.shards, n)
		specs[i] = shard.Spec{Name: name, URL: n.ts.URL}
	}
	st.routerRT = &http.Transport{MaxIdleConnsPerHost: 8, IdleConnTimeout: time.Minute}
	var rt http.RoundTripper = st.routerRT
	rt = tr.wrapTransport(rt)
	router, err := shard.New(specs, shard.Config{
		HTTPClient:        &http.Client{Transport: rt, Timeout: time.Minute},
		FailoverThreshold: 2,
	})
	if err != nil {
		st.close()
		return nil, 0, err
	}
	st.router = router
	// The same edge darwin-router serves: request ids minted or propagated,
	// per-route telemetry, then the /v2 handler set over the router.
	st.front = httptest.NewServer(tr.wrapRouter(obs.Instrument(obs.Default(), "darwin-router", nil, server.V2Handler(router))))
	st.sdkHTTP = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8, IdleConnTimeout: time.Minute}, Timeout: time.Minute}
	st.client = darwin.NewClient(st.front.URL, "", darwin.WithHTTPClient(st.sdkHTTP))
	router.EnsureReplication(ctx)
	if _, err := st.client.ListDatasets(ctx, "", 0); err != nil {
		st.close()
		return nil, 0, fmt.Errorf("first request: %w", err)
	}
	elapsed := time.Since(start)
	for _, e := range engines {
		st.sentences += e.Corpus().Len()
	}
	return st, elapsed, nil
}

// primary returns the shard serving the workload's dataset.
func (st *stack) primary() (*shardNode, error) {
	for _, p := range st.router.Placements() {
		if p.Dataset != st.in.w.dataset {
			continue
		}
		for _, n := range st.shards {
			if n.name == p.Primary {
				return n, nil
			}
		}
	}
	return nil, fmt.Errorf("no replication placement for %s", st.in.w.dataset)
}

// restartPrimary stops the dataset's primary shard and starts a fresh
// server.New over its journal at the same URL. The fresh engine is built
// before the clock starts; the returned duration runs from server.New until
// the router serves probe() from the recovered state.
func (st *stack) restartPrimary(ctx context.Context, probe func() error) (time.Duration, workspace.RecoveryStats, error) {
	var zero workspace.RecoveryStats
	n, err := st.primary()
	if err != nil {
		return 0, zero, err
	}
	n.serve(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, `{"code":"unavailable","message":"restarting","retryable":true}`, http.StatusServiceUnavailable)
	}))
	// Compact first, so every run restarts from a snapshot plus an empty
	// tail instead of however many events its last compaction left.
	if err := n.srv.Workspaces().Compact(); err != nil {
		return 0, zero, fmt.Errorf("compact primary: %w", err)
	}
	if err := n.srv.Close(); err != nil {
		return 0, zero, fmt.Errorf("close primary: %w", err)
	}
	engine, err := core.New(st.in.corpus(), engineConfig(st.in.seed, st.in.w.sketchDepth))
	if err != nil {
		return 0, zero, err
	}
	start := time.Now()
	srv, err := server.New(n.cfg, &server.Dataset{Name: st.in.w.dataset, Engine: engine})
	if err != nil {
		return 0, zero, fmt.Errorf("restart primary: %w", err)
	}
	n.srv = srv
	n.serve(st.tr.wrapShard(n.name, srv))
	if err := probe(); err != nil {
		return 0, zero, fmt.Errorf("first request after restart: %w", err)
	}
	elapsed := time.Since(start)
	st.router.EnsureReplication(ctx)
	return elapsed, srv.Recovery(), nil
}

func (st *stack) close() {
	if st.front != nil {
		st.front.Close()
	}
	for _, n := range st.shards {
		n.ts.Close()
		if err := n.srv.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: close shard %s: %v\n", n.name, err)
		}
	}
	if st.sdkHTTP != nil {
		st.sdkHTTP.CloseIdleConnections()
	}
	if st.routerRT != nil {
		st.routerRT.CloseIdleConnections()
	}
}
