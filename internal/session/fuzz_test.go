package session

import "testing"

// FuzzFSMTransitions drives the BGP FSM with arbitrary event sequences
// and pins the structural invariants: every reachable state is defined,
// fsmStep is total (never panics, even on out-of-range inputs), and
// stEstablished is entered exclusively through the full handshake — an
// stOpenConfirm session receiving the confirming KEEPALIVE.
func FuzzFSMTransitions(f *testing.F) {
	f.Add([]byte{0, 1, 3, 4})          // the clean handshake
	f.Add([]byte{0, 1, 3, 4, 5, 0})    // handshake, hold expiry, restart
	f.Add([]byte{4, 4, 3, 2, 1, 0})    // messages into states that cannot take them
	f.Add([]byte{0, 0, 0, 1, 1, 3, 3}) // duplicate events
	f.Add([]byte{250, 9, 10, 255})     // out-of-range events
	f.Fuzz(func(t *testing.T, data []byte) {
		s := stIdle
		for _, b := range data {
			// Bias toward defined events but keep out-of-range inputs in
			// the mix: totality is part of the contract.
			e := fsmEv(b)
			if b < 128 {
				e = fsmEv(b % uint8(numEvents))
			}
			prev := s
			next, ok := fsmStep(s, e)
			if !next.Valid() {
				t.Fatalf("Step(%v, %v) reached invalid state %d", prev, e, uint8(next))
			}
			if !ok && next != stIdle {
				t.Fatalf("out-of-range input (%v, %v) must reset to Idle, got %v", prev, e, next)
			}
			if next == stEstablished && prev != stEstablished {
				if prev != stOpenConfirm || e != evKeepalive {
					t.Fatalf("Established entered from %v on %v: only OpenConfirm+Keepalive may establish", prev, e)
				}
			}
			s = next
		}

	})
}

// FuzzReplayDeltas differentially checks the one epoch compiler against
// an independent window scan. The fuzzer chooses LinkDown events — three
// bytes each: link, start, duration — on the three-link test topology,
// with BFD on or off; the events span sub-second blips the hold timer
// never sees, flap storms that trip damping, and outages running past
// the horizon. After Replay and Deltas(0, H), seq.LinkDownAt must equal
// the scan over DownWindows ∪ CtlDown at every boundary and midpoint.
func FuzzReplayDeltas(f *testing.F) {
	f.Add([]byte{0, 10, 40}, false)                              // one long fault with a session tail
	f.Add([]byte{1, 30, 1}, true)                                // a blip BFD sees and the hold timer does not
	f.Add([]byte{1, 10, 8, 1, 14, 8, 1, 18, 8, 1, 22, 8}, false) // a flap storm into damping
	f.Add([]byte{2, 250, 255, 0, 240, 30}, false)                // outages past the horizon
	f.Add([]byte{0, 5, 20, 0, 10, 4, 2, 5, 20, 1, 100, 1}, true) // overlaps and concurrent links
	topo, links := testTopo(f)
	ids := []int{links["trab"], links["eye"], links["stub"]}
	const horizon = 300.0
	f.Fuzz(func(t *testing.T, data []byte, bfd bool) {
		var evs [][3]float64
		for i := 0; i+2 < len(data) && len(evs) < 32; i += 3 {
			link := ids[int(data[i])%len(ids)]
			start := float64(data[i+1])
			dur := 0.01 + float64(data[i+2])*0.25 // 0.6 s to ~64 min
			evs = append(evs, [3]float64{float64(link), start, dur})
		}
		tl := timeline(t, topo, evs)
		h, err := Replay(tl, nil, Config{BFD: bfd}, 42, horizon)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := h.Deltas(0, horizon)
		if err != nil {
			t.Fatal(err)
		}
		checkSeqAgainstScan(t, h, seq, ids)
	})
}
