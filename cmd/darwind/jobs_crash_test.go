package main

import (
	"bufio"
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/autolabel"
	"repro/pkg/darwin"
)

// TestLabelingJobCrashRecoverySIGKILL is the end-to-end durability test for
// the async labeling-job subsystem: a real darwind process is SIGKILLed while
// a job is mid-run (no shutdown hook, the journal has the create record but
// no terminal record), restarted with the same -journal and -jobs-dir, and
// must re-run the job under its original id to output bytes identical to a
// fresh job of the same spec — the pipeline is a pure function of (corpus,
// spec).
func TestLabelingJobCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the darwind binary; skipped in -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "darwind")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	jobsDir := filepath.Join(dir, "jobs")
	journalPath := filepath.Join(dir, "journal.jsonl")

	// Identical flags across runs: the corpus must rebuild identically for
	// the re-run to be byte-deterministic.
	args := []string{
		"-addr", "127.0.0.1:0",
		"-datasets", "directions",
		"-scale", "0.2",
		"-seed", "7",
		"-candidates", "400",
		"-sketch-depth", "4",
		"-journal", journalPath,
		"-jobs-dir", jobsDir,
		"-job-workers", "1",
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

	// An extreme EM iteration count stretches the aggregate stage to seconds,
	// so the SIGKILL reliably lands mid-job. The count only affects runtime,
	// not determinism: the re-run uses the same journaled spec.
	spec := autolabel.Spec{
		Rules:        []string{"best way to get to", "how do i get", "'bus'"},
		Aggregator:   autolabel.AggregatorGenerative,
		EMIterations: 200000,
		IncludeProb:  true,
	}
	ctx := context.Background()

	proc1, addr := start()
	defer proc1.Process.Kill()
	client := darwin.NewClient("http://"+addr, "")

	st, err := client.CreateLabelingJob(ctx, "directions", spec)
	if err != nil {
		t.Fatal(err)
	}
	jobID := st.ID

	// Wait until the job is actually running (the create record is durable
	// the moment the create returned), then kill -9.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err = client.LabelingJob(ctx, "directions", jobID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == autolabel.StateRunning {
			break
		}
		if st.State == autolabel.StateDone || st.State == autolabel.StateFailed {
			t.Fatalf("job reached %s before the kill; raise EMIterations", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(time.Millisecond)
	}
	if err := proc1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	proc1.Wait()
	if fi, err := os.Stat(journalPath); err != nil || fi.Size() == 0 {
		t.Fatalf("journal missing or empty after kill: %v", err)
	}

	proc2, addr2 := start()
	defer func() {
		proc2.Process.Kill()
		proc2.Wait()
	}()
	client2 := darwin.NewClient("http://"+addr2, "")

	// The interrupted job re-runs under its original id and completes.
	recovered, err := client2.WaitLabelingJob(ctx, "directions", jobID, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("recovered job: %v", err)
	}
	if recovered.State != autolabel.StateDone {
		t.Fatalf("recovered job ended %s: %s", recovered.State, recovered.Error)
	}
	var recoveredOut bytes.Buffer
	if err := client2.LabelingJobOutput(ctx, "directions", jobID, 0, &recoveredOut); err != nil {
		t.Fatal(err)
	}

	// A fresh job of the same spec on the restarted server must produce the
	// exact same bytes.
	fresh, err := client2.CreateLabelingJob(ctx, "directions", spec)
	if err != nil {
		t.Fatal(err)
	}
	if fresh, err = client2.WaitLabelingJob(ctx, "directions", fresh.ID, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if fresh.State != autolabel.StateDone {
		t.Fatalf("fresh job ended %s: %s", fresh.State, fresh.Error)
	}
	var freshOut bytes.Buffer
	if err := client2.LabelingJobOutput(ctx, "directions", fresh.ID, 0, &freshOut); err != nil {
		t.Fatal(err)
	}
	if recovered.OutputBytes != fresh.OutputBytes || recovered.Covered != fresh.Covered || recovered.Positives != fresh.Positives {
		t.Errorf("recovered job status %+v != fresh job status %+v", recovered, fresh)
	}
	if !bytes.Equal(recoveredOut.Bytes(), freshOut.Bytes()) {
		t.Fatalf("recovered output (%d bytes) differs from a fresh run of the same spec (%d bytes)",
			recoveredOut.Len(), freshOut.Len())
	}
}
