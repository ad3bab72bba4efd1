package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestIngestCrashRecoverySIGKILL kills a real darwind with SIGKILL in the
// middle of an ingest storm and restarts it on the same journal. The
// durable-before-2xx contract says every acknowledged batch must survive;
// batches whose response was lost may or may not have landed, but never
// partially — the corpus length is always a whole number of batches. The
// acknowledged annotation answers from before the storm must survive too.
func TestIngestCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the darwind binary; skipped in -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "darwind")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	journal := filepath.Join(dir, "journal.jsonl")
	args := []string{
		"-addr", "127.0.0.1:0",
		"-datasets", "directions",
		"-scale", "0.05",
		"-seed", "7",
		"-budget", "100",
		"-candidates", "400",
		"-sketch-depth", "4",
		"-journal", journal,
	}
	listenRE := regexp.MustCompile(`listening on ([0-9.:]+)`)
	start := func() (*exec.Cmd, string) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		addrCh := make(chan string, 1)
		go func() {
			sc := bufio.NewScanner(stderr)
			for sc.Scan() {
				if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
					addrCh <- m[1]
				}
			}
		}()
		select {
		case addr := <-addrCh:
			return cmd, addr
		case <-time.After(60 * time.Second):
			cmd.Process.Kill()
			t.Fatal("darwind did not start listening")
			return nil, ""
		}
	}
	do := func(addr, method, path string, body, out any) int {
		t.Helper()
		var rd *bytes.Reader
		if body != nil {
			b, _ := json.Marshal(body)
			rd = bytes.NewReader(b)
		} else {
			rd = bytes.NewReader(nil)
		}
		req, err := http.NewRequest(method, "http://"+addr+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		if out != nil {
			json.NewDecoder(resp.Body).Decode(out)
		}
		return resp.StatusCode
	}

	const batchSize = 100
	type ingestResult struct {
		From      int `json:"from"`
		Ingested  int `json:"ingested"`
		CorpusLen int `json:"corpus_len"`
	}
	ingest := func(addr string, tag string) (ingestResult, bool) {
		var sb strings.Builder
		for i := 0; i < batchSize; i++ {
			fmt.Fprintf(&sb, `{"text":"best way to get to %s stop %d","label":1}`+"\n", tag, i)
		}
		resp, err := http.Post("http://"+addr+"/v2/datasets/directions/sentences",
			"application/x-ndjson", strings.NewReader(sb.String()))
		if err != nil {
			return ingestResult{}, false // connection died mid-kill: unacknowledged
		}
		defer resp.Body.Close()
		var res ingestResult
		json.NewDecoder(resp.Body).Decode(&res)
		return res, resp.StatusCode == http.StatusOK
	}

	proc1, addr := start()
	defer proc1.Process.Kill()

	// Annotation before the storm: a workspace whose acknowledged answers
	// must survive the crash byte-for-byte.
	var alice struct {
		ID string `json:"id"`
	}
	if status := do(addr, "POST", "/v2/labelers", map[string]any{
		"dataset":    "directions",
		"mode":       "workspace",
		"annotator":  "alice",
		"seed_rules": []string{"best way to get to"},
		"budget":     40,
		"seed":       3,
	}, &alice); status != http.StatusCreated {
		t.Fatalf("create workspace: status %d", status)
	}
	base := "/v2/labelers/" + alice.ID
	// suggest returns alice's pending key, or done once the budget is spent
	// (the budget_exhausted conflict).
	suggest := func(addr string) (key string, done bool) {
		t.Helper()
		var sug struct {
			Key  string `json:"key"`
			Code string `json:"code"`
		}
		status := do(addr, "GET", base+"/suggestion", nil, &sug)
		if status == http.StatusConflict && sug.Code == "budget_exhausted" {
			return "", true
		}
		if status != http.StatusOK {
			t.Fatalf("suggest: status %d", status)
		}
		return sug.Key, false
	}
	for q := 0; q < 8; q++ {
		key, done := suggest(addr)
		if done {
			break
		}
		if status := do(addr, "POST", base+"/answers", map[string]any{
			"answers": []map[string]any{{"key": key, "accept": q%3 == 0}},
		}, nil); status != http.StatusOK {
			t.Fatalf("answer: status %d", status)
		}
	}
	// snapshot reads the workspace report and alice's labeler status.
	snapshot := func(addr string) []any {
		t.Helper()
		paths := []string{base + "/report", base}
		out := make([]any, len(paths))
		for i, path := range paths {
			if status := do(addr, "GET", path, nil, &out[i]); status != http.StatusOK {
				t.Fatalf("GET %s: status %d", path, status)
			}
		}
		return out
	}
	before := snapshot(addr)

	// First batch pins the boot corpus length.
	first, ok := ingest(addr, "warmup")
	if !ok {
		t.Fatal("warmup ingest failed")
	}
	boot := first.From

	// Ingest storm with a concurrent SIGKILL: the killer fires from another
	// goroutine mid-storm, so the final POST is very likely in flight — the
	// exact scenario the durability contract is about.
	acked := first.CorpusLen
	killed := make(chan struct{})
	go func() {
		time.Sleep(150 * time.Millisecond)
		proc1.Process.Kill()
		close(killed)
	}()
	for i := 0; ; i++ {
		res, ok := ingest(addr, fmt.Sprintf("storm%d", i))
		if !ok {
			break
		}
		if res.From != acked {
			t.Errorf("batch %d acknowledged at %d, want %d (lost or reordered batch)", i, res.From, acked)
		}
		acked = res.CorpusLen
	}
	<-killed
	proc1.Wait()
	if acked == first.CorpusLen {
		t.Log("note: kill landed before any storm batch was acknowledged")
	}

	proc2, addr2 := start()
	defer func() {
		proc2.Process.Kill()
		proc2.Wait()
	}()

	// The probe batch reveals the recovered corpus length via From.
	probe, ok := ingest(addr2, "probe")
	if !ok {
		t.Fatal("probe ingest after restart failed")
	}
	if probe.From < acked {
		t.Fatalf("recovered corpus has %d sentences but %d were acknowledged: an acknowledged batch was lost", probe.From, acked)
	}
	if (probe.From-boot)%batchSize != 0 {
		t.Fatalf("recovered corpus length %d is not a whole number of %d-sentence batches past boot %d: torn batch", probe.From, batchSize, boot)
	}

	// Acknowledged answers from before the storm survive byte-for-byte.
	after := snapshot(addr2)
	if !reflect.DeepEqual(before, after) {
		b1, _ := json.MarshalIndent(before, "", " ")
		b2, _ := json.MarshalIndent(after, "", " ")
		t.Fatalf("report or labeler status changed across SIGKILL+restart:\nbefore: %s\nafter:  %s", b1, b2)
	}
	// And the workspace keeps serving over the recovered, grown corpus.
	if key, done := suggest(addr2); !done && key == "" {
		t.Fatal("post-recovery suggestion is empty")
	}
}
