package main

import (
	"math"
	"math/rand"
	"sort"
)

// deck deals a fixed multiset of cards in a seeded random order, and
// reshuffles when it runs out.  This is stratified sampling: every full
// deck holds each card exactly its share, so the mix a run sends, and with
// it the run-to-run spread of the figures, does not wander with the seed.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

// newDeck deals a copy of cards, so decks built from one slice stay
// independent.
func newDeck(rng *rand.Rand, cards []int) *deck {
	return &deck{rng: rng, cards: append([]int(nil), cards...), next: len(cards)}
}

func (d *deck) draw() int {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// zipfCards is a deck of size cards over ranks 0..n-1 holding rank k in
// proportion to (k+1)^-s, apportioned by largest remainder.
func zipfCards(n int, s float64, size int) []int {
	w := make([]float64, n)
	total := 0.0
	for k := range w {
		w[k] = math.Pow(float64(k+1), -s)
		total += w[k]
	}
	counts := make([]int, n)
	rem := make([]float64, n)
	used := 0
	for k := range w {
		exact := w[k] / total * float64(size)
		counts[k] = int(exact)
		rem[k] = exact - float64(counts[k])
		used += counts[k]
	}
	order := make([]int, n)
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(i, j int) bool { return rem[order[i]] > rem[order[j]] })
	for i := 0; used < size; i++ {
		counts[order[i]]++
		used++
	}
	var cards []int
	for k, c := range counts {
		for ; c > 0; c-- {
			cards = append(cards, k)
		}
	}
	return cards
}

// ranks returns the cards 0..n-1.
func ranks(n int) []int {
	cards := make([]int, n)
	for k := range cards {
		cards[k] = k
	}
	return cards
}
