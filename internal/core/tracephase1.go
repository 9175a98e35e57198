package core

import (
	"fmt"
	"io"
	"text/tabwriter"

	"subgemini/internal/label"
)

// phase1Tracer reproduces the presentation of the paper's Fig. 2 and
// Fig. 4: per-round labels for both graphs with corrupt pattern vertices
// shown as "xx" and pruned main-graph vertices as "-".  Labels are
// symbolized in order of first appearance, with net-degree initial labels
// rendered as the degree itself and device types as their names, matching
// the figures.
type phase1Tracer struct {
	p       *phase1
	rounds  []p1Snap
	symbols map[label.Value]string
	next    int
}

type p1Snap struct {
	title  string
	sLab   []label.Value
	sState []p1State
	gLab   []label.Value
	gState []g1State
}

func newPhase1Tracer(p *phase1) *phase1Tracer {
	t := &phase1Tracer{p: p, symbols: map[label.Value]string{}}
	// Pre-name the invariant labels so the rendering reads like Fig. 2:
	// degrees as numbers, device types as their names.
	view := p.m.gCSR
	for i, lab := range view.TypeLab {
		t.symbols[lab] = view.Types[i]
	}
	for _, d := range p.pat.s.Devices {
		if d.Type != "*" {
			t.symbols[label.TypeLabel(d.Type)] = d.Type
		}
	}
	for deg := 0; deg <= 64; deg++ {
		t.symbols[label.DegreeLabel(deg)] = fmt.Sprintf("%d", deg)
	}
	return t
}

func (t *phase1Tracer) snapshot(title string) {
	t.rounds = append(t.rounds, p1Snap{
		title:  title,
		sLab:   append([]label.Value(nil), t.p.sLab...),
		sState: append([]p1State(nil), t.p.sState...),
		gLab:   append([]label.Value(nil), t.p.gLab...),
		gState: append([]g1State(nil), t.p.gState...),
	})
}

func (t *phase1Tracer) symbol(v label.Value) string {
	if s, ok := t.symbols[v]; ok {
		return s
	}
	n := t.next
	t.next++
	s := ""
	for {
		s = string(rune('A'+n%26)) + s
		n = n/26 - 1
		if n < 0 {
			break
		}
	}
	t.symbols[v] = s
	return s
}

// render writes the Fig. 2/4-style table: pattern rows first ("xx" once
// corrupt), then main-graph rows ("-" once pruned by a consistency check).
func (t *phase1Tracer) render(w io.Writer, key string, cvSize int) {
	fmt.Fprintf(w, "Phase I trace (key vertex %s, |CV| = %d)\n", key, cvSize)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	header := "vertex"
	for _, r := range t.rounds {
		header += "\t" + r.title
	}
	fmt.Fprintf(tw, "-- pattern S --%s\n", dashes(len(t.rounds)))
	fmt.Fprintln(tw, header)
	for v := 0; v < t.p.sSpace.Size(); v++ {
		line := t.p.sSpace.Name(label.VID(v))
		for _, r := range t.rounds {
			switch r.sState[v] {
			case p1Corrupt:
				line += "\txx"
			case p1Global:
				line += "\t(" + t.p.sSpace.Name(label.VID(v)) + ")"
			default:
				line += "\t" + t.symbol(r.sLab[v])
			}
		}
		fmt.Fprintln(tw, line)
	}
	fmt.Fprintf(tw, "-- main graph G --%s\n", dashes(len(t.rounds)))
	fmt.Fprintln(tw, header)
	for v := 0; v < t.p.gSpace.Size(); v++ {
		line := t.p.gSpace.Name(label.VID(v))
		for _, r := range t.rounds {
			switch r.gState[v] {
			case g1Pruned:
				line += "\t-"
			case g1Global:
				line += "\t(" + t.p.gSpace.Name(label.VID(v)) + ")"
			default:
				line += "\t" + t.symbol(r.gLab[v])
			}
		}
		fmt.Fprintln(tw, line)
	}
	tw.Flush()
	fmt.Fprintln(w)
}
