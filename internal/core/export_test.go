package core

// Test helpers shared with the external core_test package, whose tests drive
// the engine through internal/workspace (which imports core).
var (
	SmallCorpus = testCorpus
	FastConfig  = fastConfig
)
