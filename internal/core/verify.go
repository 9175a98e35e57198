package core

import "subgemini/internal/graph"

// verifyMapping checks the completed match edge-by-edge (the paper's
// "verify the isomorphism mapping" step).  Labels only approximate exact
// partitions, so this check is what makes the matcher sound: it confirms
//
//   - the device and net maps are injective;
//   - every device maps to one of equal type with, per terminal class, the
//     exact multiset of image nets (source/drain interchange allowed within
//     a class, nothing else);
//   - every internal pattern net maps to a net of equal degree (induced
//     subgraph: internal nets may not connect outside the instance);
//   - every port maps to a net of at least its degree;
//   - every global maps to the identically named global of the run.
func (p *phase2) verifyMapping() bool {
	// Injectivity, tracked with the reusable round-marker array (device and
	// net VIDs are disjoint, so one sweep covers both).
	p.markID++
	for _, d := range p.pat.s.Devices {
		gv := p.sMatch[p.sSpace.DevVID(d)]
		if gv == unmatched || p.mark[gv] == p.markID {
			return false
		}
		p.mark[gv] = p.markID
	}
	for _, n := range p.pat.s.Nets {
		gv := p.sMatch[p.sSpace.NetVID(n)]
		if gv == unmatched || p.mark[gv] == p.markID {
			return false
		}
		p.mark[gv] = p.markID
	}

	// Device structure.
	for _, d := range p.pat.s.Devices {
		gd := p.gSpace.Device(p.sMatch[p.sSpace.DevVID(d)])
		if len(gd.Pins) != len(d.Pins) {
			return false
		}
		if gd.Type != d.Type && d.Type != graph.WildcardType {
			return false
		}
		if !p.pinsAgree(d, gd) {
			return false
		}
	}

	// Net structure.
	for _, n := range p.pat.s.Nets {
		gnet := p.gSpace.Net(p.sMatch[p.sSpace.NetVID(n)])
		switch {
		case n.Global:
			if gnet.Name != n.Name || !p.pat.globals.has(int32(gnet.Index)) {
				return false
			}
		case n.Port:
			if gnet.Degree() < n.Degree() {
				return false
			}
		default:
			if gnet.Degree() != n.Degree() {
				return false
			}
		}
	}
	return true
}

// pinsAgree checks that, for every terminal class, the multiset of image
// nets of d's pins equals the multiset of nets of gd's pins.  Devices have
// a handful of pins, so a stack-allocated insertion sort avoids the
// allocation and closure cost of sort.Slice in this hot path (it runs once
// per device per verified instance).
func (p *phase2) pinsAgree(d, gd *graph.Device) bool {
	var sBuf, gBuf [16]uint64
	nPins := len(d.Pins)
	sPins, gPins := sBuf[:0], gBuf[:0]
	if nPins > len(sBuf) {
		sPins = make([]uint64, 0, nPins)
		gPins = make([]uint64, 0, nPins)
	}
	for _, pin := range d.Pins {
		img := p.sMatch[p.sSpace.NetVID(pin.Net)]
		if img == unmatched {
			return false
		}
		sPins = append(sPins, uint64(pin.Class)<<48|uint64(img))
	}
	for _, pin := range gd.Pins {
		gPins = append(gPins, uint64(pin.Class)<<48|uint64(p.gSpace.NetVID(pin.Net)))
	}
	insertionSort(sPins)
	insertionSort(gPins)
	for i := range sPins {
		if sPins[i] != gPins[i] {
			return false
		}
	}
	return true
}

func insertionSort(a []uint64) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
