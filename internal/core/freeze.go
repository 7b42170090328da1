package core

import (
	"beatbgp/internal/bgp"
	"beatbgp/internal/cdn"
	"beatbgp/internal/delta"
	"beatbgp/internal/dnsmap"
	"beatbgp/internal/netpath"
	"beatbgp/internal/netsim"
	"beatbgp/internal/provider"
	"beatbgp/internal/session"
	"beatbgp/internal/topology"
)

// World is a frozen, concurrently-queryable view of a built Scenario:
// the immutable artifacts of the build graph (topology, provider, DNS
// map, oracle, resolver, route engine) shared by pointer, plus the
// fault-dynamics pipeline — the session replay bound into a private Sim
// as its fault overlay, and the compiled epoch sequence bound into a
// private CDN view's anycast repair chain. Key is the build graph's
// content key, so two worlds with equal keys answer every query
// byte-identically (the harness checkpoints on the same invariant).
//
// A World is the serving layer's handle (internal/serve): everything
// reachable from it is either immutable or guarded, so any number of
// goroutines may query it, and nothing a World holds is changed by
// building, deriving or freezing any other scenario. What-if mutations
// must go through scratch bgp.RouteRepairer chains (bgp.StartRepair
// against Routes), never through the shared caches.
type World struct {
	Key string
	Cfg Config

	Topo *topology.Topo
	Prov *provider.Provider
	// CDN is this world's view of the scenario's CDN (cdn.WithEpochs):
	// its AnycastRIBAt walks Epochs.
	CDN    *cdn.CDN
	DNS    *dnsmap.Mapping
	Oracle *bgp.Oracle
	Res    *netpath.Resolver
	Routes bgp.Computer

	// Sim is a private simulator over the scenario's config with the
	// session replay bound as its fault overlay; no experiment shares it.
	Sim *netsim.Sim

	// Hist is the session replay of the scenario's fault schedule; its
	// compiled delta sequence is Epochs, the timeline every epoch-keyed
	// query (and the serving layer's epoch cursor) walks.
	Hist   *session.History
	Epochs *delta.Sequence
}

// Freeze builds the scenario's fault-dynamics pipeline (once — the
// same lazily-built state the fault studies share) and returns a frozen
// world handle with its own Sim and CDN view bound to it. The scenario
// and its shared artifacts are not modified, so freezing any number of
// scenarios — including derived ones sharing this CDN — never changes
// another world's answers.
func (s *Scenario) Freeze() (*World, error) {
	key, err := WorldKey(s.userCfg)
	if err != nil {
		return nil, err
	}
	fe, err := s.faultEpochs()
	if err != nil {
		return nil, err
	}
	return &World{
		Key:    key,
		Cfg:    s.Cfg,
		Topo:   s.Topo,
		Prov:   s.Prov,
		CDN:    s.CDN.WithEpochs(fe.seq),
		DNS:    s.DNS,
		Oracle: s.Oracle,
		Res:    s.Res,
		Routes: s.Routes,
		Sim:    netsim.New(s.Topo, s.Cfg.Net, fe.hist, nil),
		Hist:   fe.hist,
		Epochs: fe.seq,
	}, nil
}
