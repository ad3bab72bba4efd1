package server

import (
	"errors"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"repro/pkg/darwin"
)

// TestSessionJournalRecovery pins that a solo labeler is as durable as any
// workspace: with only JournalPath set, it survives a server restart with
// the same id and an identical report, while deleted solo labelers stay
// deleted.
func TestSessionJournalRecovery(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "ws.jsonl")
	cfg := Config{JournalPath: jp}
	srv, _ := newTestServer(t, cfg)
	ts := httptest.NewServer(srv)
	client := darwin.NewClient(ts.URL, "")
	ctx := t.Context()

	lab, err := client.NewLabeler(ctx, darwin.CreateOptions{
		Dataset: "directions", SeedRules: []string{"best way to get to"}, Budget: 10, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		sug, err := lab.Suggest(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := lab.Answer(ctx, darwin.Answer{Key: sug.Key, Accept: i%2 == 0}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := lab.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// A second solo labeler deleted before the restart must not come back.
	gone, err := client.NewLabeler(ctx, darwin.CreateOptions{
		Dataset: "directions", SeedRules: []string{"best way to get to"}, Budget: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := gone.Close(ctx); err != nil {
		t.Fatal(err)
	}

	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same journal: the engine is rebuilt identically, so
	// replaying create + answers reproduces the exact labeler.
	srv2, _ := newTestServer(t, cfg)
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	client2 := darwin.NewClient(ts2.URL, "")

	got, err := client2.OpenLabeler(lab.ID()).Report(ctx)
	if err != nil {
		t.Fatalf("recovered session report: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recovered report %+v != pre-restart %+v", got, want)
	}
	// The recovered labeler keeps working: the suggestion stream continues.
	if _, err := client2.OpenLabeler(lab.ID()).Suggest(ctx); err != nil {
		t.Errorf("recovered labeler cannot suggest: %v", err)
	}

	if _, err := client2.OpenLabeler(gone.ID()).Report(ctx); !errors.Is(err, darwin.ErrNotFound) {
		t.Errorf("deleted labeler resurrected: %v", err)
	}
}

// TestSessionJournalTwoRestarts makes sure a recovered solo labeler's
// post-restart answers are journaled too: a second restart replays both
// generations of answers.
func TestSessionJournalTwoRestarts(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "ws.jsonl")
	cfg := Config{JournalPath: jp}
	srv, _ := newTestServer(t, cfg)
	ts := httptest.NewServer(srv)
	client := darwin.NewClient(ts.URL, "")
	ctx := t.Context()

	lab, err := client.NewLabeler(ctx, darwin.CreateOptions{
		Dataset: "directions", SeedRules: []string{"best way to get to"}, Budget: 10, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	sug, err := lab.Suggest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := lab.Answer(ctx, darwin.Answer{Key: sug.Key, Accept: true}); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, _ := newTestServer(t, cfg)
	ts2 := httptest.NewServer(srv2)
	client2 := darwin.NewClient(ts2.URL, "")
	lab2 := client2.OpenLabeler(lab.ID())
	sug2, err := lab2.Suggest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := lab2.Answer(ctx, darwin.Answer{Key: sug2.Key, Accept: false}); err != nil {
		t.Fatal(err)
	}
	want, err := lab2.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ts2.Close()
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}

	srv3, _ := newTestServer(t, cfg)
	defer srv3.Close()
	ts3 := httptest.NewServer(srv3)
	defer ts3.Close()
	got, err := darwin.NewClient(ts3.URL, "").OpenLabeler(lab.ID()).Report(ctx)
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("second recovery report %+v != %+v", got, want)
	}
}
