package core

import (
	"subgemini/internal/graph"
	"subgemini/internal/label"
	"subgemini/internal/stats"
)

// Test-only hooks for package-external tests (the differential tests live
// in core_test so they can use internal/gen, which depends on this
// package).

// SetP1Grain overrides the striping grain and returns a restore func, so
// differential tests can force the parallel code paths on small circuits.
func SetP1Grain(n int) (restore func()) {
	old := p1Grain
	p1Grain = n
	return func() { p1Grain = old }
}

// SetP1CancelBlock overrides the in-pass cancellation block size and
// returns a restore func, so cancellation tests can force mid-pass polling
// on small circuits.
func SetP1CancelBlock(n int) (restore func()) {
	old := p1CancelBlock
	p1CancelBlock = n
	return func() { p1CancelBlock = old }
}

// SetRegionCancelBlock overrides the region-extraction cancellation block
// size and returns a restore func, so cancellation tests can force mid-BFS
// polling on small circuits.
func SetRegionCancelBlock(n int) (restore func()) {
	old := rCancelBlock
	rCancelBlock = n
	return func() { rCancelBlock = old }
}

// SetIncReplayCap overrides the dirty-region degradation threshold and
// returns a restore func, so incremental tests can force both the
// region-replay path (cap 1.0) and the full-capture degradation path
// (cap 0) on the same circuits.
func SetIncReplayCap(f float64) (restore func()) {
	old := incReplayCap
	incReplayCap = f
	return func() { incReplayCap = old }
}

// RunPhase1ForTest runs candidate generation alone, after the same setup
// as Find, and returns the key vertex, candidate vector, and the report
// counters Phase I filled in.
func RunPhase1ForTest(m *Matcher, s *graph.Circuit) (label.VID, []label.VID, stats.Report, error) {
	var rep stats.Report
	_, p1, err := m.setup(s, &rep)
	if err != nil {
		return 0, nil, stats.Report{}, err
	}
	key, cv, err := p1.run()
	return key, cv, rep, err
}

// SetupForTest runs the per-run matcher setup of Find alone (view
// adoption, the global overlay, pattern validation and both graphs'
// initial labels), for the setup allocation gate and benchmark.
func SetupForTest(m *Matcher, s *graph.Circuit) error {
	var rep stats.Report
	_, _, err := m.setup(s, &rep)
	return err
}
