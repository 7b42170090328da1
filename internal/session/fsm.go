package session

import "fmt"

// fsmState is a BGP session FSM state (RFC 4271 §8.2.2, condensed: the two
// transport-racing states Connect and Active collapse into Connect, since
// the simulator's transport either comes up after a message delay or the
// attempt fails and the retry timer re-arms).
type fsmState uint8

// BGP FSM states, in handshake order.
const (
	stIdle fsmState = iota
	stConnect
	stOpenSent
	stOpenConfirm
	stEstablished
	numStates
)

func (s fsmState) String() string {
	switch s {
	case stIdle:
		return "Idle"
	case stConnect:
		return "Connect"
	case stOpenSent:
		return "OpenSent"
	case stOpenConfirm:
		return "OpenConfirm"
	case stEstablished:
		return "Established"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Valid reports whether s is one of the five defined states.
func (s fsmState) Valid() bool { return s < numStates }

// fsmEv is an input to the BGP session FSM: operator/timer actions and
// received protocol messages.
type fsmEv uint8

// FSM inputs.
const (
	// evStart arms a connection attempt (ManualStart / retry-timer fire).
	evStart fsmEv = iota
	// evTCPOpen reports the transport came up.
	evTCPOpen
	// evTCPFail reports the transport attempt failed or was torn down.
	evTCPFail
	// evBGPOpen is a received OPEN message.
	evBGPOpen
	// evKeepalive is a received KEEPALIVE message.
	evKeepalive
	// evUpdate is a received UPDATE message.
	evUpdate
	// evHoldExpire is the hold timer firing: no KEEPALIVE/UPDATE heard
	// for the negotiated hold time.
	evHoldExpire
	// evLinkDown is a liveness loss signalled from outside the BGP
	// machinery itself — an interface down notification or a BFD session
	// declaring the forwarding path dead.
	evLinkDown
	// evStop is an administrative stop.
	evStop
	numEvents
)

func (e fsmEv) String() string {
	names := [...]string{"Start", "TCPOpen", "TCPFail", "BGPOpen", "Keepalive", "Update", "HoldExpire", "LinkDown", "Stop"}
	if int(e) < len(names) {
		return names[e]
	}
	return fmt.Sprintf("Ev(%d)", uint8(e))
}

// transitions is the full state-transition table. Every (state, event)
// pair maps to a defined state: events that RFC 4271 treats as FSM errors
// (a message arriving in a state that cannot legally receive it) reset the
// session to stIdle, exactly as the RFC's "FSM error" handling closes the
// connection; events that are meaningless in a state (Start while already
// started, a duplicate transport-up report) leave the state unchanged.
// stEstablished is entered from stOpenConfirm on evKeepalive ONLY — the fuzz
// test pins that the full handshake is the one road in.
var transitions = [numStates][numEvents]fsmState{
	stIdle: {
		evStart:   stConnect,
		evTCPOpen: stIdle, evTCPFail: stIdle,
		evBGPOpen: stIdle, evKeepalive: stIdle, evUpdate: stIdle,
		evHoldExpire: stIdle, evLinkDown: stIdle, evStop: stIdle,
	},
	stConnect: {
		evStart:   stConnect,
		evTCPOpen: stOpenSent, // transport up: send OPEN
		evTCPFail: stIdle,
		evBGPOpen: stIdle, evKeepalive: stIdle, evUpdate: stIdle, // FSM error
		evHoldExpire: stIdle, evLinkDown: stIdle, evStop: stIdle,
	},
	stOpenSent: {
		evStart:     stOpenSent,
		evTCPOpen:   stOpenSent, // duplicate transport report: ignore
		evTCPFail:   stIdle,
		evBGPOpen:   stOpenConfirm,            // OPEN accepted: send KEEPALIVE
		evKeepalive: stIdle, evUpdate: stIdle, // FSM error
		evHoldExpire: stIdle, evLinkDown: stIdle, evStop: stIdle,
	},
	stOpenConfirm: {
		evStart:      stOpenConfirm,
		evTCPOpen:    stOpenConfirm,
		evTCPFail:    stIdle,
		evBGPOpen:    stIdle,        // collision resolution, simplified: reset
		evKeepalive:  stEstablished, // peer confirmed our OPEN
		evUpdate:     stIdle,        // FSM error
		evHoldExpire: stIdle, evLinkDown: stIdle, evStop: stIdle,
	},
	stEstablished: {
		evStart:      stEstablished,
		evTCPOpen:    stEstablished,
		evTCPFail:    stIdle,
		evBGPOpen:    stIdle,        // FSM error
		evKeepalive:  stEstablished, // refreshes the hold timer
		evUpdate:     stEstablished, // refreshes the hold timer
		evHoldExpire: stIdle, evLinkDown: stIdle, evStop: stIdle,
	},
}

// fsmStep applies one event to a state and returns the next state. It is
// total: any (state, event) pair — including out-of-range values, which
// reset to stIdle — yields a defined state, and it never panics. The second
// return reports whether the input pair was in-range.
func fsmStep(s fsmState, e fsmEv) (fsmState, bool) {
	if s >= numStates || e >= numEvents {
		return stIdle, false
	}
	return transitions[s][e], true
}

// bfdState is a BFD liveness FSM state (RFC 5880 §6.2, without
// AdminDown: the simulator never administratively disables a session it
// is replaying).
type bfdState uint8

// BFD states.
const (
	bfdDown bfdState = iota
	bfdInit
	bfdUp
	numBFDStates
)

func (s bfdState) String() string {
	switch s {
	case bfdDown:
		return "BFDDown"
	case bfdInit:
		return "BFDInit"
	case bfdUp:
		return "BFDUp"
	default:
		return fmt.Sprintf("BFDState(%d)", uint8(s))
	}
}

// bfdEv is an input to the BFD FSM: the remote state carried in a
// received control packet, or the local detection timer expiring.
type bfdEv uint8

// BFD FSM inputs.
const (
	bfdRecvDown bfdEv = iota // packet with fsmState=Down
	bfdRecvInit              // packet with fsmState=Init
	bfdRecvUp                // packet with fsmState=Up
	bfdTimeout               // detection time (DetectMult × interval) with no packet
	numBFDEvents
)

// bfdTransitions follows RFC 5880 figure 1: both ends start Down, a
// received Down answers with Init, Init+Init (or Init+Up) brings the
// session Up, and either a received Down or the detection timer tears it
// back to Down.
var bfdTransitions = [numBFDStates][numBFDEvents]bfdState{
	bfdDown: {bfdRecvDown: bfdInit, bfdRecvInit: bfdUp, bfdRecvUp: bfdDown, bfdTimeout: bfdDown},
	bfdInit: {bfdRecvDown: bfdInit, bfdRecvInit: bfdUp, bfdRecvUp: bfdUp, bfdTimeout: bfdDown},
	bfdUp:   {bfdRecvDown: bfdDown, bfdRecvInit: bfdUp, bfdRecvUp: bfdUp, bfdTimeout: bfdDown},
}

// bfdStep applies one event to a BFD state, total and panic-free like
// fsmStep; out-of-range inputs reset to bfdDown.
func bfdStep(s bfdState, e bfdEv) (bfdState, bool) {
	if s >= numBFDStates || e >= numBFDEvents {
		return bfdDown, false
	}
	return bfdTransitions[s][e], true
}
