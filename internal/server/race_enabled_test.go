//go:build race

package server

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation allocates; allocation gates skip under
// it and are enforced by the plain `go test` run.
const raceEnabled = true
