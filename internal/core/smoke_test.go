package core

import (
	"testing"

	"subgemini/internal/graph"
	"subgemini/internal/stdcell"
)

// chain builds an inverter chain of length k with shared rails.
func chain(t *testing.T, k int) *graph.Circuit {
	t.Helper()
	c := graph.New("chain")
	vdd, gnd := c.AddNet("VDD"), c.AddNet("GND")
	prev := c.AddNet("n0")
	for i := 0; i < k; i++ {
		next := c.AddNet("n" + string(rune('1'+i)))
		stdcell.INV.MustInstantiate(c, "inv"+string(rune('a'+i)), map[string]*graph.Net{
			"A": prev, "Y": next, "VDD": vdd, "GND": gnd,
		})
		prev = next
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestInverterChain(t *testing.T) {
	g := chain(t, 3)
	res, err := Find(g, stdcell.INV.Pattern(), Options{Globals: []string{"VDD", "GND"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Instances); got != 3 {
		t.Fatalf("found %d inverters, want 3 (report: %s)", got, res.Report.String())
	}
}

// TestInverterInNAND reproduces paper Fig. 7: without special signals the
// inverter pattern is found once inside a NAND2 (via the internal pull-down
// node standing in for GND); with VDD/GND special it is not found.
func TestInverterInNAND(t *testing.T) {
	build := func() *graph.Circuit {
		g := graph.New("nandckt")
		nets := map[string]*graph.Net{}
		for _, n := range []string{"A", "B", "Y", "VDD", "GND"} {
			nets[n] = g.AddNet(n)
		}
		stdcell.NAND2.MustInstantiate(g, "u1", nets)
		return g
	}

	res, err := Find(build(), stdcell.INV.Pattern(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Instances); got != 1 {
		t.Errorf("without globals: found %d inverter instances in NAND2, want 1 (Fig. 7)", got)
	}

	res, err = Find(build(), stdcell.INV.Pattern(), Options{Globals: []string{"VDD", "GND"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Instances); got != 0 {
		t.Errorf("with globals: found %d inverter instances in NAND2, want 0 (Fig. 7)", got)
	}
}

// TestLaterGlobalMarkStalesView pins the compiled-view contract for global
// marks made after a view is built: the view records the circuit's marks,
// so a supplied view, or a matcher's cached one, built before
// g.MarkGlobal no longer fits and the run sees the new special signals
// (Fig. 7: the inverter is no longer found inside the NAND2).
func TestLaterGlobalMarkStalesView(t *testing.T) {
	build := func() *graph.Circuit {
		g := graph.New("nandckt")
		nets := map[string]*graph.Net{}
		for _, n := range []string{"A", "B", "Y", "VDD", "GND"} {
			nets[n] = g.AddNet(n)
		}
		stdcell.NAND2.MustInstantiate(g, "u1", nets)
		return g
	}
	count := func(m *Matcher) int {
		t.Helper()
		res, err := m.Find(stdcell.INV.Pattern())
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Instances)
	}

	g := build()
	view := NewCSR(g)
	g.MarkGlobal("VDD")
	g.MarkGlobal("GND")
	m, err := NewMatcher(g, Options{CSR: view})
	if err != nil {
		t.Fatal(err)
	}
	if got := count(m); got != 0 {
		t.Errorf("supplied view built before MarkGlobal: %d instances, want 0", got)
	}

	g = build()
	m, err = NewMatcher(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := count(m); got != 1 {
		t.Fatalf("before MarkGlobal: %d instances, want 1", got)
	}
	g.MarkGlobal("VDD")
	g.MarkGlobal("GND")
	if got := count(m); got != 0 {
		t.Errorf("cached view after MarkGlobal: %d instances, want 0", got)
	}
}

func TestNandInMixedCircuit(t *testing.T) {
	g := graph.New("mixed")
	vdd, gnd := g.AddNet("VDD"), g.AddNet("GND")
	a, b, c, y1, y2, y3 := g.AddNet("a"), g.AddNet("b"), g.AddNet("c"), g.AddNet("y1"), g.AddNet("y2"), g.AddNet("y3")
	stdcell.NAND2.MustInstantiate(g, "u1", map[string]*graph.Net{"A": a, "B": b, "Y": y1, "VDD": vdd, "GND": gnd})
	stdcell.NOR2.MustInstantiate(g, "u2", map[string]*graph.Net{"A": y1, "B": c, "Y": y2, "VDD": vdd, "GND": gnd})
	stdcell.NAND2.MustInstantiate(g, "u3", map[string]*graph.Net{"A": y2, "B": a, "Y": y3, "VDD": vdd, "GND": gnd})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	opts := Options{Globals: []string{"VDD", "GND"}}
	res, err := Find(g, stdcell.NAND2.Pattern(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Instances); got != 2 {
		t.Errorf("NAND2: found %d, want 2 (report: %s)", got, res.Report.String())
	}
	res, err = Find(g, stdcell.NOR2.Pattern(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Instances); got != 1 {
		t.Errorf("NOR2: found %d, want 1 (report: %s)", got, res.Report.String())
	}
	res, err = Find(g, stdcell.XOR2.Pattern(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Instances); got != 0 {
		t.Errorf("XOR2: found %d, want 0", got)
	}
}
