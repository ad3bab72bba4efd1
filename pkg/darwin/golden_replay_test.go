package darwin_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/pkg/darwin"
)

// goldenStep is one oracle interaction of the pinned solo labeler (the same
// transcript internal/workspace's TestWorkspaceMatchesGoldenReplay pins
// against the workspace API directly).
type goldenStep struct {
	key      string
	accept   bool
	coverage int
	benefit  string // Benefit formatted to 6 decimals (bit-identical floats)
}

var goldenTranscript = []goldenStep{
	{"tokensregex:way to get to", true, 6, "1.385422"},
	{"tokensregex:best way to get", true, 5, "1.842029"},
	{"tokensregex:best way to", false, 67, "31.171959"},
	{"tokensregex:the best way to", false, 67, "31.171959"},
	{"tokensregex:best way to order", false, 25, "16.242205"},
	{"tokensregex:best way to check", false, 37, "14.929754"},
	{"tokensregex:to get to", true, 6, "0.000000"},
	{"tokensregex:get to", true, 6, "0.000000"},
	{"tokensregex:get", false, 51, "8.719565"},
	{"tokensregex:i get", false, 42, "8.719565"},
	{"tokensregex:can i get", false, 41, "8.249672"},
	{"tokensregex:can i get a", false, 41, "8.249672"},
}

var goldenPositives = []int{7, 75, 210, 211, 246, 262, 462, 499, 587}

// TestGoldenReplayThroughRemoteLabeler pins the whole new surface end to
// end: the recorded transcript must replay bit-identically through
// darwin.NewClient → HTTP /v2 → server SDK adapter → workspace — same
// suggestion sequence, same coverage counts, same benefit floats (float64
// survives the JSON round trip exactly), same final positive set.
func TestGoldenReplayThroughRemoteLabeler(t *testing.T) {
	testGoldenReplay(t, newTestServer(t))
}

// TestGoldenReplayThroughRouter pins the sharded deployment to the same
// bar: one extra hop (client → darwin-router's /v2 → shard's /v2 → adapter
// → workspace) must not perturb a single float or suggestion.
func TestGoldenReplayThroughRouter(t *testing.T) {
	testGoldenReplay(t, newRouterTestServer(t))
}

func testGoldenReplay(t *testing.T, ts *httptest.Server) {
	ctx := context.Background()
	lab, err := darwin.NewClient(ts.URL, "").NewLabeler(ctx, darwin.CreateOptions{
		Dataset:   testDataset,
		SeedRules: []string{testSeedRule},
		Budget:    12,
		Seed:      42,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range goldenTranscript {
		sug, err := lab.Suggest(ctx)
		if err != nil {
			t.Fatalf("step %d: %v (want %q)", i, err, want.key)
		}
		if sug.Key != want.key {
			t.Fatalf("step %d: proposed %q, golden transcript has %q", i, sug.Key, want.key)
		}
		if sug.Coverage != want.coverage {
			t.Errorf("step %d (%s): coverage %d, want %d", i, sug.Key, sug.Coverage, want.coverage)
		}
		if got := fmt.Sprintf("%.6f", sug.Benefit); got != want.benefit {
			t.Errorf("step %d (%s): benefit %s, want %s", i, sug.Key, got, want.benefit)
		}
		if err := lab.Answer(ctx, darwin.Answer{Key: sug.Key, Accept: want.accept}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := lab.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.PositiveIDs, goldenPositives) {
		t.Errorf("final positives %v, golden %v", rep.PositiveIDs, goldenPositives)
	}
	if !rep.Done {
		t.Error("report not done after the golden budget")
	}
}
