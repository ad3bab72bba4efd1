package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/autolabel"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/pkg/darwin"
)

func routerJobSpec() autolabel.Spec {
	return autolabel.Spec{
		Rules:       []string{"best way to get to", "how do i get"},
		Aggregator:  autolabel.AggregatorGenerative,
		IncludeProb: true,
	}
}

// newJobShardServer is newShardServer with the labeling-job subsystem on.
func newJobShardServer(t testing.TB, datasets ...string) *server.Server {
	t.Helper()
	sets := make([]*server.Dataset, 0, len(datasets))
	for _, name := range datasets {
		sets = append(sets, &server.Dataset{Name: name, Engine: newTestEngine(t, name)})
	}
	dir := t.TempDir()
	srv, err := server.New(server.Config{JournalPath: filepath.Join(dir, "journal.jsonl"), JobsDir: dir, JobWorkers: 1}, sets...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestRouterLabelingJobsEndToEnd drives the job verbs through client → router
// → shard and holds the routed output to the determinism contract: the bytes
// streamed across two HTTP hops equal a direct in-process autolabel.Run of
// the same spec over an identically-built engine.
func TestRouterLabelingJobsEndToEnd(t *testing.T) {
	shardA := httptest.NewServer(newJobShardServer(t, "directions", "musicians"))
	defer shardA.Close()
	shardB := httptest.NewServer(newJobShardServer(t, "directions", "musicians"))
	defer shardB.Close()
	_, ts := newRouterServer(t, []shard.Spec{
		{Name: "alpha", URL: shardA.URL}, {Name: "beta", URL: shardB.URL},
	}, shard.Config{})
	client := darwin.NewClient(ts.URL, "")
	ctx := context.Background()

	// Direct reference run: engines are pure functions of their flags, so a
	// freshly built twin engine produces the bytes the routed job must match.
	var direct bytes.Buffer
	directRes, err := autolabel.Run(ctx, newTestEngine(t, "directions"), routerJobSpec(), &direct, nil)
	if err != nil {
		t.Fatal(err)
	}

	st, err := client.CreateLabelingJob(ctx, "directions", routerJobSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Job reads route by dataset, so ids are the shard's own, unprefixed.
	if strings.Contains(st.ID, shard.Sep) {
		t.Fatalf("job id %q carries a shard prefix", st.ID)
	}
	st, err = client.WaitLabelingJob(ctx, "directions", st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != autolabel.StateDone {
		t.Fatalf("routed job ended %s: %s", st.State, st.Error)
	}
	if st.Covered != directRes.Covered || st.Positives != directRes.Positives || st.OutputBytes != directRes.OutputBytes {
		t.Errorf("routed status %+v does not match direct result %+v", st, directRes)
	}
	var got bytes.Buffer
	if err := client.LabelingJobOutput(ctx, "directions", st.ID, 0, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), direct.Bytes()) {
		t.Error("client → router → shard output differs from direct Run output")
	}
	var tail bytes.Buffer
	if err := client.LabelingJobOutput(ctx, "directions", st.ID, 100, &tail); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tail.Bytes(), direct.Bytes()[100:]) {
		t.Error("offset download through the router differs from the output suffix")
	}

	// Unknown ids, and a known id asked of another dataset, are not found.
	if _, err := client.LabelingJob(ctx, "directions", "jnosuchjob"); !errors.Is(err, darwin.ErrNotFound) {
		t.Errorf("unknown job id: %v, want ErrNotFound", err)
	}
	if _, err := client.LabelingJob(ctx, "musicians", st.ID); !errors.Is(err, darwin.ErrNotFound) {
		t.Errorf("job id under another dataset: %v, want ErrNotFound", err)
	}
}

// TestRouterJobLabelerReference pins labeler-reference resolution across the
// namespace boundary: a labeler on the dataset's own shard resolves, one on
// a different shard is rejected before anything is enqueued.
func TestRouterJobLabelerReference(t *testing.T) {
	shardA := httptest.NewServer(newJobShardServer(t, "directions", "musicians"))
	defer shardA.Close()
	shardB := httptest.NewServer(newJobShardServer(t, "directions", "musicians"))
	defer shardB.Close()
	rt, ts := newRouterServer(t, []shard.Spec{
		{Name: "alpha", URL: shardA.URL}, {Name: "beta", URL: shardB.URL},
	}, shard.Config{})
	client := darwin.NewClient(ts.URL, "")
	ctx := context.Background()
	if rt.Place("directions") == rt.Place("musicians") {
		t.Fatal("test datasets hash to the same shard; the cross-shard case needs them apart")
	}

	lab, err := client.NewLabeler(ctx, darwin.CreateOptions{
		Dataset: "directions", SeedRules: []string{seedRuleFor("directions")}, Budget: 5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := client.CreateLabelingJob(ctx, "directions", autolabel.Spec{Labeler: lab.ID()})
	if err != nil {
		t.Fatalf("job referencing a same-shard labeler: %v", err)
	}
	if st.Spec.Labeler != "" || len(st.Spec.Rules) == 0 {
		t.Fatalf("labeler reference not resolved into rules: %+v", st.Spec)
	}
	if st, err = client.WaitLabelingJob(ctx, "directions", st.ID, 10*time.Millisecond); err != nil || st.State != autolabel.StateDone {
		t.Fatalf("labeler-reference job: %+v (%v)", st, err)
	}

	// A labeler living on the musicians shard cannot vote into a directions
	// job (its accepted rules were mined against another shard's corpus).
	other, err := client.NewLabeler(ctx, darwin.CreateOptions{
		Dataset: "musicians", SeedRules: []string{seedRuleFor("musicians")}, Budget: 5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.CreateLabelingJob(ctx, "directions", autolabel.Spec{Labeler: other.ID()}); !errors.Is(err, darwin.ErrInvalid) {
		t.Errorf("cross-shard labeler reference: %v, want ErrInvalid", err)
	}
}

// TestRouterSnubaBaseline checks the synchronous baseline routes to the
// dataset's primary and returns the same JSON a direct in-process run does.
func TestRouterSnubaBaseline(t *testing.T) {
	shardA := httptest.NewServer(newJobShardServer(t, "directions", "musicians"))
	defer shardA.Close()
	_, ts := newRouterServer(t, []shard.Spec{{Name: "alpha", URL: shardA.URL}}, shard.Config{})
	client := darwin.NewClient(ts.URL, "")
	ctx := context.Background()

	req := autolabel.SnubaRequest{SeedSize: 200, Seed: 3, MinPrecision: 0.5, CompareRules: []string{seedRuleFor("directions")}}
	want, err := autolabel.RunSnuba(newTestEngine(t, "directions"), req)
	if err != nil {
		t.Fatal(err)
	}
	want.Dataset = "directions" // RunSnuba leaves it to the serving layer

	got, err := client.SnubaBaseline(ctx, "directions", req)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("routed snuba baseline diverged from the direct run:\n  direct %s\n  routed %s", wantJSON, gotJSON)
	}
	if len(got.Rules) == 0 || got.Snuba.Covered == 0 {
		t.Errorf("snuba mined nothing: %+v", got)
	}
}
