package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"beatbgp/internal/bgp"
	"beatbgp/internal/delta"
	"beatbgp/internal/faults"
	"beatbgp/internal/netsim"
)

// ribDigest hashes every AS's best route so two RIBs can be compared for
// bit-identity by string equality.
func ribDigest(s *Scenario, rib *bgp.RIB) string {
	h := sha256.New()
	var buf [8]byte
	word := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for as := 0; as < s.Topo.NumASes(); as++ {
		b := rib.Best(as)
		if !b.Valid {
			word(-1)
			continue
		}
		word(int(b.Src))
		word(b.Link)
		word(b.NextHop)
		word(len(b.Path))
		for _, p := range b.Path {
			word(p)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// seqDigest fingerprints an epoch sequence: every boundary instant and
// cumulative down set.
func seqDigest(seq *delta.Sequence) string {
	h := sha256.New()
	for i := 0; i < seq.Len(); i++ {
		e := seq.Epoch(i)
		fmt.Fprintf(h, "@%v:%v;", e.Start, e.Down)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// walkDigests carries a repair chain across every epoch of the sequence
// in order and digests each repaired RIB.
func walkDigests(t *testing.T, s *Scenario, seq *delta.Sequence) []string {
	t.Helper()
	walker, err := newRepairWalker(s.Routes, s.CDN.Announcements(nil))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, seq.Len())
	for e := 0; e < seq.Len(); e++ {
		rib, err := walker.At(seq.Epoch(e).DownSet())
		if err != nil {
			t.Fatal(err)
		}
		out[e] = ribDigest(s, rib)
	}
	return out
}

// flapEpochs compiles the xflap storm through the session layer into an
// epoch sequence, exactly as flapStormStudy's replay would see it.
func flapEpochs(t *testing.T, s *Scenario) *delta.Sequence {
	t.Helper()
	traces, err := s.efTraces()
	if err != nil {
		t.Fatal(err)
	}
	traceVol := make([]float64, len(traces))
	for i, tr := range traces {
		for _, w := range tr.Windows {
			traceVol[i] += w.VolumeBytes
		}
	}
	tl, _, err := flapStormTimeline(s, traces, traceVol)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := sessionHistory(s, tl, s.Cfg.Session)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := hist.Deltas(0, faultHorizonMin)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// TestEpochRepairBitIdenticalAcrossWorkers is the tentpole's acceptance
// gate at the core layer: over the xfaults and xflap timelines compiled
// through the session layer, the repaired RIB at every epoch must be
// bit-identical to a from-scratch rebuild at that epoch's down set, and
// the whole pipeline — timeline, replay, sequence, repaired routes —
// must be bit-identical at any worker count. Seeds 42 and 7; workers 1,
// 2, and 8. Rebuild comparison runs once per seed (workers cannot touch
// the serial repair walk); the other worker counts must reproduce the
// workers=1 digests exactly, which transitively pins them to the
// rebuild too.
func TestEpochRepairBitIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scenario epoch sweep")
	}
	for _, seed := range []uint64{42, 7} {
		base := scenario(t, seed)
		type pipeline struct {
			faultsSeq, flapSeq    string
			faultsRIBs, flapsRIBs []string
		}
		var want pipeline
		for i, workers := range []int{1, 2, 8} {
			s, err := base.Derive(context.Background(), func(c *Config) { c.Workers = workers })
			if err != nil {
				t.Fatal(err)
			}
			fe, err := s.faultEpochs()
			if err != nil {
				t.Fatal(err)
			}
			got := pipeline{
				faultsSeq:  seqDigest(fe.seq),
				flapSeq:    seqDigest(flapEpochs(t, s)),
				faultsRIBs: walkDigests(t, s, fe.seq),
				flapsRIBs:  walkDigests(t, s, flapEpochs(t, s)),
			}
			if i == 0 {
				want = got
				// Workers=1: pin every epoch's repaired RIB to a full
				// rebuild at the epoch's down set.
				for name, seq := range map[string]*delta.Sequence{
					"xfaults": fe.seq, "xflap": flapEpochs(t, s),
				} {
					digests := got.faultsRIBs
					if name == "xflap" {
						digests = got.flapsRIBs
					}
					anns := s.CDN.Announcements(nil)
					for e := 0; e < seq.Len(); e++ {
						rebuilt, err := s.Routes.ComputeWithout(anns, seq.Epoch(e).DownSet())
						if err != nil {
							t.Fatal(err)
						}
						if d := ribDigest(s, rebuilt); d != digests[e] {
							t.Fatalf("seed %d %s epoch %d: repaired RIB != rebuilt RIB", seed, name, e)
						}
					}
				}
				continue
			}
			if got.faultsSeq != want.faultsSeq || got.flapSeq != want.flapSeq {
				t.Fatalf("seed %d workers %d: epoch sequence differs from workers=1", seed, workers)
			}
			for e := range want.faultsRIBs {
				if got.faultsRIBs[e] != want.faultsRIBs[e] {
					t.Fatalf("seed %d workers %d: xfaults epoch %d RIB differs from workers=1", seed, workers, e)
				}
			}
			for e := range want.flapsRIBs {
				if got.flapsRIBs[e] != want.flapsRIBs[e] {
					t.Fatalf("seed %d workers %d: xflap epoch %d RIB differs from workers=1", seed, workers, e)
				}
			}
		}
	}
}

// TestRepairWalkerMatchesRebuild drives the walker over arbitrary,
// unordered down sets — overlapping, disjoint, empty, revisited — and
// checks each RIB against ComputeWithout.
func TestRepairWalkerMatchesRebuild(t *testing.T) {
	s := scenario(t, 11)
	anns := s.CDN.Announcements(nil)
	walker, err := newRepairWalker(s.Routes, anns)
	if err != nil {
		t.Fatal(err)
	}
	var links []int
	for _, site := range s.CDN.Sites {
		for _, nb := range s.Topo.Neighbors(site.AS.ID) {
			links = append(links, nb.Link)
		}
	}
	if len(links) < 3 {
		t.Fatalf("only %d site links", len(links))
	}
	sets := []map[int]bool{
		{links[0]: true},
		{links[0]: true, links[1]: true},
		{links[2]: true},
		nil,
		{links[1]: true, links[2]: true},
		{links[0]: true}, // revisit
	}
	for i, down := range sets {
		got, err := walker.At(down)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.Routes.ComputeWithout(anns, down)
		if err != nil {
			t.Fatal(err)
		}
		if ribDigest(s, got) != ribDigest(s, want) {
			t.Fatalf("set %d: walker RIB != rebuilt RIB", i)
		}
	}
}

// TestFaultEpochsMemoized: the pipeline builds once and is shared.
func TestFaultEpochsMemoized(t *testing.T) {
	s := scenario(t, 12)
	a, err := s.faultEpochs()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.faultEpochs()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("faultEpochs rebuilt on second call")
	}
	if a.seq.Len() < 2 {
		t.Fatalf("fault sequence has %d epochs, want several", a.seq.Len())
	}
}

// TestWorldSimReadsEpochs pins that a frozen world's Sim answers link
// state from the same compiled sequence the route chains walk, and
// congestion from the same fault schedule: at every epoch start, every
// xfaults event midpoint and one minute past the horizon, for every
// link, the Sim is down exactly when the clean stochastic process or the
// sequence says so (the sequence's last epoch holds past its End), and
// its link latency is the clean value plus the schedule's storms. Inside
// the horizon the sequence must also match an independent scan of the
// session replay's physical and control-plane windows.
func TestWorldSimReadsEpochs(t *testing.T) {
	if testing.Short() {
		t.Skip("two frozen worlds")
	}
	for _, seed := range []uint64{42, 7} {
		s := scenario(t, seed)
		w, err := s.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		fe, err := s.faultEpochs()
		if err != nil {
			t.Fatal(err)
		}
		clean := netsim.New(w.Topo, w.Cfg.Net, nil, nil, nil)
		var instants []float64
		for e := 0; e < w.Epochs.Len(); e++ {
			instants = append(instants, w.Epochs.Epoch(e).Start)
		}
		for _, e := range fe.tl.Events() {
			instants = append(instants, e.Start+e.Duration/2)
		}
		instants = append(instants, w.Epochs.End()+1)
		last := map[int]bool{}
		for _, l := range w.Epochs.Epoch(w.Epochs.Len() - 1).Down {
			last[l] = true
		}
		downs, stormed := 0, 0
		for _, at := range instants {
			for l := range w.Topo.Links {
				seqDown := w.Epochs.LinkDownAt(l, at)
				if got, want := w.Sim.LinkFailed(l, at), clean.LinkFailed(l, at) || seqDown; got != want {
					t.Fatalf("seed %d link %d at %v: Sim down=%v, clean||sequence=%v", seed, l, at, got, want)
				}
				if at < w.Epochs.End() {
					if scan := windowScanDown(fe.tl.DownWindows(l), at) || windowScanDown(fe.hist.CtlDown(l), at); seqDown != scan {
						t.Fatalf("seed %d link %d at %v: sequence down=%v, window scan %v", seed, l, at, seqDown, scan)
					}
				} else if seqDown != last[l] {
					t.Fatalf("seed %d link %d past the horizon: sequence down=%v, last epoch %v", seed, l, seqDown, last[l])
				}
				extra := fe.tl.ExtraLinkMs(l, at)
				if got, want := w.Sim.LinkMs(l, at), clean.LinkMs(l, at)+extra; got != want {
					t.Fatalf("seed %d link %d at %v: Sim LinkMs %v, clean+storms %v", seed, l, at, got, want)
				}
				if seqDown {
					downs++
				}
				if extra > 0 {
					stormed++
				}
			}
		}
		if downs == 0 || stormed == 0 {
			t.Fatalf("seed %d: %d injected downs and %d stormed links probed; the check cannot bite", seed, downs, stormed)
		}
	}
}

// windowScanDown reports whether t lies in one of the [Start, End)
// windows, by linear scan.
func windowScanDown(ws []faults.Window, t float64) bool {
	for _, w := range ws {
		if w.Start <= t && t < w.End {
			return true
		}
	}
	return false
}
