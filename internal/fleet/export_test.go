package fleet

// Test helpers shared with the external fleet_test package, whose tests
// can import the engines package fleet's own tests cannot (baselines
// imports fleet).
var (
	ShardRun         = shardRun
	RequireIdentical = requireIdentical
	ChaosFaults      = chaosFaults
)
