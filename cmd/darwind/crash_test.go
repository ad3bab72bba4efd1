package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// TestCrashRecoverySIGKILL is the end-to-end durability test: a real
// darwind process serving a two-annotator workspace and a solo labeler
// (mode "session") is killed with SIGKILL mid-session (no shutdown hook
// runs), restarted with the same -journal, and must come back with
// byte-identical reports and statuses and keep serving suggestions from
// where it left off.
func TestCrashRecoverySIGKILL(t *testing.T) {
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

	// Identical flags across runs: the engine must rebuild identically for
	// replay to be deterministic.
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

	proc1, addr := start()
	defer proc1.Process.Kill()

	// Create a workspace with two annotators and answer >= 20 steps.
	type labeler struct {
		ID        string `json:"id"`
		Workspace string `json:"workspace"`
		Annotator string `json:"annotator"`
	}
	var alice, bob labeler
	if status := do(addr, "POST", "/v2/labelers", map[string]any{
		"dataset":    "directions",
		"mode":       "workspace",
		"annotator":  "alice",
		"seed_rules": []string{"best way to get to"},
		"budget":     60,
		"seed":       3,
	}, &alice); status != http.StatusCreated {
		t.Fatalf("create workspace: status %d", status)
	}
	if status := do(addr, "POST", "/v2/labelers", map[string]any{
		"mode": "workspace", "workspace": alice.Workspace, "annotator": "bob",
	}, &bob); status != http.StatusCreated {
		t.Fatalf("attach bob: status %d", status)
	}
	labs := []labeler{alice, bob}
	// suggest returns the labeler's pending key, or done once the shared
	// budget is spent (the budget_exhausted conflict).
	suggest := func(addr string, lab labeler) (key string, done bool) {
		t.Helper()
		var sug struct {
			Key  string `json:"key"`
			Code string `json:"code"`
		}
		status := do(addr, "GET", "/v2/labelers/"+lab.ID+"/suggestion", nil, &sug)
		if status == http.StatusConflict && sug.Code == "budget_exhausted" {
			return "", true
		}
		if status != http.StatusOK {
			t.Fatalf("suggest for %s: status %d", lab.Annotator, status)
		}
		return sug.Key, false
	}
	answered := 0
	for q := 0; answered < 24; q++ {
		lab := labs[q%2]
		key, done := suggest(addr, lab)
		if done {
			break
		}
		if status := do(addr, "POST", "/v2/labelers/"+lab.ID+"/answers", map[string]any{
			"answers": []map[string]any{{"key": key, "accept": q%3 == 0}},
		}, nil); status != http.StatusOK {
			t.Fatalf("answer: status %d", status)
		}
		answered++
	}
	if answered < 20 {
		t.Fatalf("only answered %d steps before candidates ran dry", answered)
	}

	// A solo labeler is a one-annotator workspace and journals the same way.
	var solo labeler
	if status := do(addr, "POST", "/v2/labelers", map[string]any{
		"dataset":    "directions",
		"mode":       "session",
		"seed_rules": []string{"best way to get to"},
		"budget":     20,
		"seed":       5,
	}, &solo); status != http.StatusCreated {
		t.Fatalf("create solo labeler: status %d", status)
	}
	for q := 0; q < 6; q++ {
		key, done := suggest(addr, solo)
		if done {
			break
		}
		if status := do(addr, "POST", "/v2/labelers/"+solo.ID+"/answers", map[string]any{
			"answers": []map[string]any{{"key": key, "accept": q%2 == 0}},
		}, nil); status != http.StatusOK {
			t.Fatalf("solo answer: status %d", status)
		}
	}
	labs = append(labs, solo)

	// snapshot reads the shared and the solo report and every labeler's
	// status.
	snapshot := func(addr string) []any {
		t.Helper()
		paths := []string{
			"/v2/labelers/" + alice.ID + "/report", "/v2/labelers/" + alice.ID, "/v2/labelers/" + bob.ID,
			"/v2/labelers/" + solo.ID + "/report", "/v2/labelers/" + solo.ID,
		}
		out := make([]any, len(paths))
		for i, path := range paths {
			if status := do(addr, "GET", path, nil, &out[i]); status != http.StatusOK {
				t.Fatalf("GET %s: status %d", path, status)
			}
		}
		return out
	}
	before := snapshot(addr)

	// Kill -9: no flush hook, no graceful shutdown. Every acknowledged
	// answer must already be in the kernel's page cache for the journal.
	if err := proc1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	proc1.Wait()
	if fi, err := os.Stat(journal); err != nil || fi.Size() == 0 {
		t.Fatalf("journal missing or empty after kill: %v", err)
	}

	proc2, addr2 := start()
	defer func() {
		proc2.Process.Kill()
		proc2.Wait()
	}()

	after := snapshot(addr2)
	if !reflect.DeepEqual(before, after) {
		b1, _ := json.MarshalIndent(before, "", " ")
		b2, _ := json.MarshalIndent(after, "", " ")
		t.Fatalf("report or labeler status changed across SIGKILL+restart:\nbefore: %s\nafter:  %s", b1, b2)
	}

	// The recovered workspaces keep serving: every annotator can step on.
	for _, lab := range labs {
		if key, done := suggest(addr2, lab); !done && key == "" {
			t.Fatalf("post-recovery suggestion for %s is empty", lab.Annotator)
		}
	}
}
