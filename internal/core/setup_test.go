package core_test

import (
	"testing"

	"subgemini/internal/core"
	"subgemini/internal/gen"
	"subgemini/internal/stdcell"
)

// setupFixture returns one daemon-style matcher setup over a random-logic
// circuit: the compiled view supplied, the rails plus one request global
// (an overlay net the view does not mark), one NAND2 pattern.
func setupFixture(gates int) func() error {
	d := gen.RandomLogic(gates, 32, 11)
	opts := core.Options{
		Globals: append([]string{d.C.Nets[len(d.C.Nets)/2].Name}, rails...),
		CSR:     core.NewCSR(d.C),
	}
	s := stdcell.NAND2.Pattern()
	run := func() error {
		m, err := core.NewMatcher(d.C, opts)
		if err != nil {
			return err
		}
		return core.SetupForTest(m, s)
	}
	return run
}

// TestMatcherSetupAllocsFlat gates the compiled-view contract: matcher
// construction plus per-run setup (overlay, pattern, initial labels) over
// a supplied view performs a fixed number of allocations, whatever the
// circuit size — nothing is allocated, hashed or interned per device.
func TestMatcherSetupAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-detector instrumentation allocations")
	}
	count := func(gates int) float64 {
		run := setupFixture(gates)
		if err := run(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if err := run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := count(500), count(4000)
	if small != large {
		t.Errorf("matcher setup allocates %.0f/run on rand500 but %.0f/run on rand4000; want equal counts", small, large)
	}
}

// BenchmarkMatcherSetup times what a daemon request pays before Phase I:
// NewMatcher plus setup over the resident circuit's compiled view
// (rand4000, one NAND2 pattern, one request global beyond the rails).
func BenchmarkMatcherSetup(b *testing.B) {
	run := setupFixture(4000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
}
