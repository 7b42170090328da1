package main

import (
	"math/rand"

	"beatbgp/internal/matbgp"
	"beatbgp/internal/topology"
)

// The 100k-AS synthetic graph of route_sweep: the generator of
// internal/matbgp's all-pairs benchmark, copied here so the benchmark
// does not move when that test file does, with the seed perturbing the
// provider rotations, the tie-break distances, and which columns and
// uplinks a run samples.

const (
	synthTier1   = 10
	synthTransit = 500
	synthStub    = 100000 - synthTier1 - synthTransit
)

// synthGraph is the generated input: the link list for matbgp.New plus
// what the sweep needs to know about its shape.
type synthGraph struct {
	n     int
	asn   []int
	links []matbgp.Link
}

// uplink returns the id of transit t's k-th (0 or 1) link into the
// tier-1 clique: transit links follow the clique's mesh, two per
// transit.
func uplink(t, k int) int { return synthTier1*(synthTier1-1)/2 + 2*t + k }

// stubLink returns the id of stub s's k-th (0 or 1) provider link: stub
// links follow the transits', two per stub.
func stubLink(s, k int) int { return uplink(synthTransit, 0) + 2*s + k }

// transitAS and stubAS map a transit or stub index to its dense AS id.
func transitAS(t int) int { return synthTier1 + t }
func stubAS(s int) int    { return synthTier1 + synthTransit + s }

// synth builds a three-tier hierarchy from first principles (no
// topology.Topo, no geography): a tier-1 clique, transits dual-homed
// into the clique, and stubs dual-homed into a transit pair drawn from a
// fixed rotation, so stub s and stub s+synthTransit share both
// providers and collapse into one of synthTransit equivalence classes
// whose first member is stub s. Link ids are slice indices, matching
// matbgp.New's contract; distances vary so ties exercise the full
// decision order.
func synth(rng *rand.Rand) synthGraph {
	n := synthTier1 + synthTransit + synthStub
	g := synthGraph{n: n, asn: make([]int, n)}
	for i := range g.asn {
		g.asn[i] = 100 + i
	}
	off := rng.Intn(1000)
	dist := func(i int) float64 { return float64((i*37+off)%1000) + 1 }
	tier1Rot := 1 + rng.Intn(synthTier1-1)     // second tier-1 of a transit, never the first
	transitRot := 1 + rng.Intn(synthTransit-1) // second transit of a stub, never the first
	for a := 0; a < synthTier1; a++ {
		for b := a + 1; b < synthTier1; b++ {
			g.links = append(g.links, matbgp.Link{A: a, B: b, Rel: topology.P2P,
				DistA: dist(a + b), DistB: dist(a*3 + b)})
		}
	}
	for t := 0; t < synthTransit; t++ {
		v := transitAS(t)
		for k := 0; k < 2; k++ {
			g.links = append(g.links, matbgp.Link{A: v, B: (t + k*tier1Rot) % synthTier1, Rel: topology.C2P,
				DistA: dist(v + k), DistB: dist(v * 2)})
		}
	}
	for s := 0; s < synthStub; s++ {
		v := stubAS(s)
		g.links = append(g.links, matbgp.Link{A: v, B: transitAS(s % synthTransit), Rel: topology.C2P,
			DistA: dist(s), DistB: dist(s + 11)})
		g.links = append(g.links, matbgp.Link{A: v, B: transitAS((s + transitRot) % synthTransit), Rel: topology.C2P,
			DistA: dist(s + 5), DistB: dist(s + 13)})
	}
	return g
}
