package shard_test

import (
	"bytes"
	"context"
	"io"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/autolabel"
	"repro/internal/replicate"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/pkg/darwin"
)

// waitShardCaughtUp polls a shard's replication status until its stream for
// the dataset is healthy with zero lag.
func waitShardCaughtUp(t *testing.T, url, dataset string) {
	t.Helper()
	ctl := replicate.NewControl(url, "", nil)
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := ctl.Status(context.Background())
		if err == nil {
			for _, d := range st.Datasets {
				if d.Dataset == dataset && d.Role == replicate.RolePrimary && d.Healthy && d.Lag == 0 && d.AckedUpto > 0 {
					return
				}
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("shard %s never caught its follower up on %s", url, dataset)
}

// TestRouterDrivenReplicationFailover exercises the whole failover chain
// in-process: the router assigns replication roles from the ring, the
// primary streams the workload to its follower, and when the primary's
// probes cross the failover threshold the router promotes the follower and
// re-homes the dataset's ids — acknowledged answers survive, the old id
// keeps working, and the placement records the new epoch.
func TestRouterDrivenReplicationFailover(t *testing.T) {
	dir := t.TempDir()
	srvA := newShardServer(t, filepath.Join(dir, "alpha.jsonl"), "directions", "musicians")
	srvB := newShardServer(t, filepath.Join(dir, "beta.jsonl"), "directions", "musicians")
	shardA := httptest.NewServer(srvA)
	t.Cleanup(shardA.Close)
	shardB := httptest.NewServer(srvB)

	router, ts := newRouterServer(t, []shard.Spec{
		{Name: "alpha", URL: shardA.URL}, {Name: "beta", URL: shardB.URL},
	}, shard.Config{Retries: 1, RetryBackoff: 20 * time.Millisecond, FailoverThreshold: 2})
	client := darwin.NewClient(ts.URL, "")
	ctx := context.Background()

	// The ring places directions on beta with alpha as its follower.
	if router.Place("directions") != "beta" {
		t.Fatalf("directions placed on %s, want beta", router.Place("directions"))
	}
	router.EnsureReplication(ctx)
	var pl shard.PlacementInfo
	for _, p := range router.Placements() {
		if p.Dataset == "directions" {
			pl = p
		}
	}
	if pl.Primary != "beta" || pl.Follower != "alpha" || pl.Epoch != 1 {
		t.Fatalf("bootstrap placement %+v, want beta/alpha@1", pl)
	}

	lab, err := client.NewLabeler(ctx, darwin.CreateOptions{
		Dataset: "directions", Mode: darwin.ModeWorkspace, Annotator: "alice",
		SeedRules: []string{seedRuleFor("directions")}, Budget: 40, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		sug, err := lab.Suggest(ctx)
		if err != nil {
			t.Fatalf("suggest %d: %v", i, err)
		}
		if err := lab.Answer(ctx, darwin.Answer{Key: sug.Key, Accept: i%2 == 0}); err != nil {
			t.Fatalf("answer %d: %v", i, err)
		}
	}
	repBefore, err := lab.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}
	waitShardCaughtUp(t, shardB.URL, "directions")

	// Kill the primary (connection refused from here on) and let probes
	// cross the threshold; the second failed probe triggers the promotion.
	shardB.Close()
	for i := 0; i < 2; i++ {
		router.ProbeNow(ctx)
	}
	for _, p := range router.Placements() {
		if p.Dataset == "directions" {
			pl = p
		}
	}
	if pl.Primary != "alpha" || pl.Epoch != 2 {
		t.Fatalf("post-failover placement %+v, want primary alpha at epoch 2", pl)
	}

	// The pre-failover labeler id (namespaced "beta~...") keeps serving
	// through the re-home table, with every acknowledged answer intact.
	repAfter, err := lab.Report(ctx)
	if err != nil {
		t.Fatalf("report through promoted follower: %v", err)
	}
	if len(repAfter.History) != len(repBefore.History) || repAfter.Positives != repBefore.Positives {
		t.Fatalf("acknowledged answers lost in failover: before %d/%d, after %d/%d",
			len(repBefore.History), repBefore.Positives, len(repAfter.History), repAfter.Positives)
	}
	sug, err := lab.Suggest(ctx)
	if err != nil {
		t.Fatalf("suggest after failover: %v", err)
	}
	if err := lab.Answer(ctx, darwin.Answer{Key: sug.Key, Accept: true}); err != nil {
		t.Fatalf("answer after failover: %v", err)
	}
	// Fresh creates for the dataset land on the promoted primary too.
	st, err := client.CreateLabeler(ctx, darwin.CreateOptions{
		Dataset: "directions", SeedRules: []string{seedRuleFor("directions")}, Budget: 10,
	})
	if err != nil {
		t.Fatalf("create after failover: %v", err)
	}
	if got := st.ID[:len("alpha~")]; got != "alpha~" {
		t.Fatalf("fresh create routed to %q, want the promoted primary alpha", st.ID)
	}
}

// waitFollowerAcked polls a primary's replication status until its stream
// for the dataset is healthy and acked up to the primary's current journal
// sequence — after a compaction, that means the follower rebuilt its
// standby from the rewritten log.
func waitFollowerAcked(t *testing.T, srv *server.Server, url, dataset string) {
	t.Helper()
	ctl := replicate.NewControl(url, "", nil)
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := ctl.Status(context.Background())
		if err == nil {
			for _, d := range st.Datasets {
				if d.Dataset == dataset && d.Healthy && d.AckedUpto == srv.Workspaces().Seq() {
					return
				}
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("shard %s never caught its follower up on %s", url, dataset)
}

// slowJobSpec is routerJobSpec with enough EM iterations that one run takes
// about d here, calibrated on a short run so the job is still running when
// the test needs it to be, with or without the race detector.
func slowJobSpec(t *testing.T, d time.Duration) autolabel.Spec {
	t.Helper()
	eng := newTestEngine(t, "directions")
	spec := routerJobSpec()
	spec.EMIterations = 2000
	start := time.Now()
	if _, err := autolabel.Run(context.Background(), eng, spec, io.Discard, nil); err != nil {
		t.Fatal(err)
	}
	spec.EMIterations = int(float64(spec.EMIterations) * float64(d) / float64(time.Since(start)+1))
	return spec
}

// TestRouterDrivenJobFailover pins that labeling jobs fail over with their
// dataset: one job finished and one still running on the primary, the
// primary compacts and its follower catches up, then the primary dies. The
// promoted follower resolves both ids, re-runs both (outputs are never
// replicated, and the running one has no terminal record) and serves
// outputs byte-identical to a direct autolabel.Run of each spec.
func TestRouterDrivenJobFailover(t *testing.T) {
	srvA := newJobShardServer(t, "directions", "musicians")
	srvB := newJobShardServer(t, "directions", "musicians")
	shardA := httptest.NewServer(srvA)
	t.Cleanup(shardA.Close)
	shardB := httptest.NewServer(srvB)
	router, ts := newRouterServer(t, []shard.Spec{
		{Name: "alpha", URL: shardA.URL}, {Name: "beta", URL: shardB.URL},
	}, shard.Config{Retries: 1, RetryBackoff: 20 * time.Millisecond, FailoverThreshold: 2})
	client := darwin.NewClient(ts.URL, "")
	ctx := context.Background()
	if router.Place("directions") != "beta" {
		t.Fatalf("directions placed on %s, want beta", router.Place("directions"))
	}
	router.EnsureReplication(ctx)

	specs := map[string]autolabel.Spec{"finished": routerJobSpec(), "running": slowJobSpec(t, time.Second)}
	want := make(map[string][]byte)
	for name, spec := range specs {
		var buf bytes.Buffer
		if _, err := autolabel.Run(ctx, newTestEngine(t, "directions"), spec, &buf, nil); err != nil {
			t.Fatal(err)
		}
		want[name] = buf.Bytes()
	}

	// Answers give the journal a history for the compaction to collapse.
	lab, err := client.NewLabeler(ctx, darwin.CreateOptions{
		Dataset: "directions", SeedRules: []string{seedRuleFor("directions")}, Budget: 40, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		sug, err := lab.Suggest(ctx)
		if err != nil {
			t.Fatalf("suggest %d: %v", i, err)
		}
		if err := lab.Answer(ctx, darwin.Answer{Key: sug.Key, Accept: i%2 == 0}); err != nil {
			t.Fatalf("answer %d: %v", i, err)
		}
	}
	ids := make(map[string]string)
	st, err := client.CreateLabelingJob(ctx, "directions", specs["finished"])
	if err != nil {
		t.Fatal(err)
	}
	if st, err = client.WaitLabelingJob(ctx, "directions", st.ID, 10*time.Millisecond); err != nil || st.State != autolabel.StateDone {
		t.Fatalf("finished job: %+v (%v)", st, err)
	}
	ids["finished"] = st.ID
	if st, err = client.CreateLabelingJob(ctx, "directions", specs["running"]); err != nil {
		t.Fatal(err)
	}
	ids["running"] = st.ID
	for st.State != autolabel.StateRunning {
		if st.State == autolabel.StateDone || st.State == autolabel.StateFailed {
			t.Fatalf("slow job reached %s before the kill", st.State)
		}
		time.Sleep(time.Millisecond)
		if st, err = client.LabelingJob(ctx, "directions", ids["running"]); err != nil {
			t.Fatal(err)
		}
	}

	if err := srvB.Workspaces().Compact(); err != nil {
		t.Fatal(err)
	}
	waitFollowerAcked(t, srvB, shardB.URL, "directions")
	if st, err = client.LabelingJob(ctx, "directions", ids["running"]); err != nil || st.State != autolabel.StateRunning {
		t.Fatalf("slow job is no longer running at the kill: %+v (%v)", st, err)
	}

	// Kill the primary: no more HTTP, no more job workers or journal.
	shardB.Close()
	srvB.Close()
	for i := 0; i < 2; i++ {
		router.ProbeNow(ctx)
	}
	for _, p := range router.Placements() {
		if p.Dataset == "directions" && (p.Primary != "alpha" || p.Epoch != 2) {
			t.Fatalf("post-failover placement %+v, want primary alpha at epoch 2", p)
		}
	}

	for name, id := range ids {
		if _, err := client.LabelingJob(ctx, "directions", id); err != nil {
			t.Fatalf("%s job %s does not resolve on the promoted follower: %v", name, id, err)
		}
	}
	for name, id := range ids {
		st, err := client.WaitLabelingJob(ctx, "directions", id, 10*time.Millisecond)
		if err != nil || st.State != autolabel.StateDone {
			t.Fatalf("%s job after failover: %+v (%v)", name, st, err)
		}
		var got bytes.Buffer
		if err := client.LabelingJobOutput(ctx, "directions", id, 0, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want[name]) {
			t.Errorf("%s job output after failover (%d bytes) differs from a direct run (%d bytes)", name, got.Len(), len(want[name]))
		}
	}
}
