package fleet

// TestConfig exposes the test fleet configuration to the external test
// package, which drives fleets through a bench.Runner.
var TestConfig = testConfig
