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

// fsmEv is an input to the BGP session FSM: timer actions, transport
// reports and received protocol messages — the inputs the replay
// produces.
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
	// evHoldExpire is the hold timer firing: no KEEPALIVE/UPDATE heard
	// for the negotiated hold time.
	evHoldExpire
	// evLinkDown is a liveness loss signalled from outside the BGP
	// machinery itself — an interface down notification or BFD's
	// detection time passing with no packet from the peer.
	evLinkDown
	numEvents
)

func (e fsmEv) String() string {
	names := [...]string{"Start", "TCPOpen", "TCPFail", "BGPOpen", "Keepalive", "HoldExpire", "LinkDown"}
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
		evBGPOpen: stIdle, evKeepalive: stIdle,
		evHoldExpire: stIdle, evLinkDown: stIdle,
	},
	stConnect: {
		evStart:   stConnect,
		evTCPOpen: stOpenSent, // transport up: send OPEN
		evTCPFail: stIdle,
		evBGPOpen: stIdle, evKeepalive: stIdle, // FSM error
		evHoldExpire: stIdle, evLinkDown: stIdle,
	},
	stOpenSent: {
		evStart:      stOpenSent,
		evTCPOpen:    stOpenSent, // duplicate transport report: ignore
		evTCPFail:    stIdle,
		evBGPOpen:    stOpenConfirm, // OPEN accepted: send KEEPALIVE
		evKeepalive:  stIdle,        // FSM error
		evHoldExpire: stIdle, evLinkDown: stIdle,
	},
	stOpenConfirm: {
		evStart:      stOpenConfirm,
		evTCPOpen:    stOpenConfirm,
		evTCPFail:    stIdle,
		evBGPOpen:    stIdle,        // collision resolution, simplified: reset
		evKeepalive:  stEstablished, // peer confirmed our OPEN
		evHoldExpire: stIdle, evLinkDown: stIdle,
	},
	stEstablished: {
		evStart:      stEstablished,
		evTCPOpen:    stEstablished,
		evTCPFail:    stIdle,
		evBGPOpen:    stIdle,        // FSM error
		evKeepalive:  stEstablished, // refreshes the hold timer
		evHoldExpire: stIdle, evLinkDown: stIdle,
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
