package index

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/datagen"
	"repro/internal/sketch"
)

var indexSink *Index

// BenchmarkIndexBuild builds the depth-5 tokensregex index of the full
// directions corpus (15,300 sentences), the bulk of an engine's set-up.
func BenchmarkIndexBuild(b *testing.B) {
	c, err := datagen.ByName("directions", 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	c.Preprocess(corpus.PreprocessOptions{})
	builder := sketch.NewBuilder(tokenRegistry(), 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		indexSink = Build(c, builder)
	}
}
