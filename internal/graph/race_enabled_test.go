//go:build race

package graph_test

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation allocates; allocation gates skip under it.
const raceEnabled = true
