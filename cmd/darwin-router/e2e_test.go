package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
	"repro/pkg/darwin"
)

// procLogs accumulates a child process's stderr so the test can assert on
// its structured request logs.
type procLogs struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (p *procLogs) append(line string) {
	p.mu.Lock()
	p.buf.WriteString(line)
	p.buf.WriteByte('\n')
	p.mu.Unlock()
}

func (p *procLogs) contains(s string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Contains(p.buf.String(), s)
}

// TestMultiShardFailoverE2E is the end-to-end sharding test: two real
// darwind shard processes (journaled) behind a real darwin-router process,
// driven through the public SDK. One shard is killed with SIGKILL
// mid-session; labelers on the surviving shard must be unaffected, labelers
// routed to the dead shard must surface the typed retryable unavailability,
// and a restarted shard must recover its journaled workspace — and the
// attachment's deterministic labeler id — through the router.
func TestMultiShardFailoverE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs darwind + darwin-router binaries; skipped in -short")
	}
	dir := t.TempDir()
	darwind := filepath.Join(dir, "darwind")
	if out, err := exec.Command("go", "build", "-o", darwind, "../darwind").CombinedOutput(); err != nil {
		t.Fatalf("go build darwind: %v\n%s", err, out)
	}
	routerBin := filepath.Join(dir, "darwin-router")
	if out, err := exec.Command("go", "build", "-o", routerBin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build darwin-router: %v\n%s", err, out)
	}

	listenRE := regexp.MustCompile(`listening on ([0-9.:]+)`)
	start := func(bin string, args ...string) (*exec.Cmd, string, *procLogs) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
		logs := &procLogs{}
		addrCh := make(chan string, 1)
		go func() {
			sc := bufio.NewScanner(stderr)
			for sc.Scan() {
				logs.append(sc.Text())
				if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
					addrCh <- m[1]
				}
			}
		}()
		select {
		case addr := <-addrCh:
			return cmd, addr, logs
		case <-time.After(120 * time.Second):
			t.Fatalf("%s did not start listening", bin)
			return nil, "", nil
		}
	}

	// Identical engine flags across every shard start: replay determinism
	// requires the restarted shard to rebuild the exact engine.
	shardArgs := func(addr, journal string) []string {
		return []string{
			"-addr", addr,
			"-datasets", "directions,musicians",
			"-scale", "0.05",
			"-seed", "7",
			"-budget", "100",
			"-candidates", "400",
			"-sketch-depth", "4",
			"-journal", journal,
		}
	}
	journalA := filepath.Join(dir, "shard-alpha.jsonl")
	journalB := filepath.Join(dir, "shard-beta.jsonl")
	_, addrA, logsA := start(darwind, shardArgs("127.0.0.1:0", journalA)...)
	procB, addrB, _ := start(darwind, shardArgs("127.0.0.1:0", journalB)...)

	_, routerAddr, logsRouter := start(routerBin,
		"-addr", "127.0.0.1:0",
		"-shards", fmt.Sprintf("alpha=http://%s,beta=http://%s", addrA, addrB),
		"-probe-every", "200ms",
		"-retries", "1",
		"-retry-backoff", "50ms",
	)
	client := darwin.NewClient("http://"+routerAddr, "")
	ctx := context.Background()

	// Recompute the ring the router built: "musicians" lives on alpha,
	// "directions" on beta.
	ring, err := shard.New([]shard.Spec{
		{Name: "alpha", URL: "http://" + addrA}, {Name: "beta", URL: "http://" + addrB},
	}, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ring.Place("musicians") != "alpha" || ring.Place("directions") != "beta" {
		t.Fatalf("unexpected placement: musicians → %s, directions → %s",
			ring.Place("musicians"), ring.Place("directions"))
	}

	survivor, err := client.NewLabeler(ctx, darwin.CreateOptions{
		Dataset: "musicians", SeedRules: []string{"composer"}, Budget: 40, Seed: 42,
	})
	if err != nil {
		t.Fatalf("create on alpha: %v", err)
	}
	victim, err := client.NewLabeler(ctx, darwin.CreateOptions{
		Dataset: "directions", Mode: darwin.ModeWorkspace, Annotator: "alice",
		SeedRules: []string{"best way to get to"}, Budget: 40, Seed: 9,
	})
	if err != nil {
		t.Fatalf("create on beta: %v", err)
	}
	// Step the workspace labeler a few times so recovery has real history.
	for i := 0; i < 6; i++ {
		sug, err := victim.Suggest(ctx)
		if err != nil {
			t.Fatalf("suggest %d: %v", i, err)
		}
		if err := victim.Answer(ctx, darwin.Answer{Key: sug.Key, Accept: i%3 == 0}); err != nil {
			t.Fatalf("answer %d: %v", i, err)
		}
	}
	stBefore, err := victim.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	repBefore, err := victim.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// One request id must trace the whole router → shard path: issue a call
	// with a caller-chosen id and find that id in BOTH daemons' structured
	// request logs.
	const traceID = "e2e-trace-0451"
	if _, err := survivor.Status(obs.WithRequestID(ctx, traceID)); err != nil {
		t.Fatalf("traced status: %v", err)
	}
	waitForLog(t, "router", logsRouter, traceID)
	waitForLog(t, "shard alpha", logsA, traceID)

	// Scrape /metrics from the router and from shard alpha mid-test: both
	// must serve valid Prometheus text exposition covering their layers.
	routerMetrics := scrapeMetrics(t, "http://"+routerAddr)
	for _, series := range []string{
		`darwin_http_requests_total{daemon="darwin-router"`,
		`darwin_shard_requests_total{shard="alpha"`,
		`darwin_shard_up{shard="alpha"} 1`,
		"darwin_http_request_duration_seconds_bucket",
	} {
		if !strings.Contains(routerMetrics, series) {
			t.Errorf("router /metrics is missing %q", series)
		}
	}
	shardMetrics := scrapeMetrics(t, "http://"+addrA)
	for _, series := range []string{
		`darwin_http_requests_total{daemon="darwind"`,
		"darwin_workspaces_live",
		"darwin_journal_appends_total",
		"darwin_workspace_suggest_duration_seconds_count",
	} {
		if !strings.Contains(shardMetrics, series) {
			t.Errorf("shard /metrics is missing %q", series)
		}
	}

	// SIGKILL shard beta: no shutdown hook runs; the journal's kernel
	// writes are all that survives.
	if err := procB.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	procB.Wait()

	if _, err := survivor.Suggest(ctx); err != nil {
		t.Fatalf("labeler on surviving shard broke: %v", err)
	}
	if _, err := victim.Suggest(ctx); !errors.Is(err, darwin.ErrUnavailable) {
		t.Fatalf("suggest on dead shard: %v, want ErrUnavailable", err)
	} else if !darwin.Retryable(err) {
		t.Fatalf("dead-shard error %v is not marked retryable", err)
	}

	// Restart shard beta on the same address from its journal.
	start(darwind, shardArgs(addrB, journalB)...)
	waitHealthy(t, "http://"+addrB+"/healthz")

	stAfter, err := victim.Status(ctx)
	if err != nil {
		t.Fatalf("status after shard restart: %v", err)
	}
	if stAfter.ID != stBefore.ID || stAfter.Workspace != stBefore.Workspace || stAfter.Questions != stBefore.Questions {
		t.Fatalf("resumed status %+v does not match pre-crash %+v", stAfter, stBefore)
	}
	repAfter, err := victim.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(repAfter.History) != len(repBefore.History) || repAfter.Positives != repBefore.Positives {
		t.Fatalf("report diverged across SIGKILL+restart: before %d questions/%d positives, after %d/%d",
			len(repBefore.History), repBefore.Positives, len(repAfter.History), repAfter.Positives)
	}
	// The recovered attachment keeps serving through the router.
	sug, err := victim.Suggest(ctx)
	if err != nil {
		t.Fatalf("suggest after recovery: %v", err)
	}
	if err := victim.Answer(ctx, darwin.Answer{Key: sug.Key, Accept: false}); err != nil {
		t.Fatalf("answer after recovery: %v", err)
	}
}

// waitForLog polls a process's captured stderr until the wanted substring
// appears (request logs are written asynchronously to the response).
func waitForLog(t *testing.T, who string, logs *procLogs, want string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if logs.contains(want) {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s logs never contained %q", who, want)
}

// scrapeMetrics fetches base/metrics and validates it as Prometheus text
// exposition before returning it.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("scrape %s/metrics: %v", base, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape %s/metrics: HTTP %d (%v)", base, resp.StatusCode, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("scrape %s/metrics: Content-Type %q, want %q", base, ct, obs.ContentType)
	}
	if err := obs.CheckExposition(string(body)); err != nil {
		t.Fatalf("%s/metrics is not valid exposition: %v", base, err)
	}
	return string(body)
}

// waitHealthy polls a healthz URL until it answers 200.
func waitHealthy(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("%s never became healthy", url)
}
