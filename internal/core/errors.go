package core

import "errors"

// Sentinel errors of the v2 (error-returning, context-threaded) API
// surface. The plain wrappers (Client.Send, Server.Receive) keep their
// original signatures: each runs its *Ctx verb under
// context.Background() and maps these sentinels through
// plainMsg — it panics with ErrUnknownAlgorithm (a programming error)
// and returns an OpShutdown-marked message for every other error
// (system teardown, which must not crash a process that merely
// outlived its server).
var (
	// ErrShutdown is returned by every blocking *Ctx path once the
	// system has been shut down: parked waiters are unblocked with it,
	// and new sends fail fast with it while the system drains.
	ErrShutdown = errors.New("core: system shut down")

	// ErrUnknownAlgorithm reports an Algorithm value outside the four
	// protocols. The plain verbs panic with this same sentinel.
	ErrUnknownAlgorithm = errors.New("core: unknown algorithm")

	// ErrDisconnected is returned by SendCtx after the handle completed
	// a disconnect handshake: the server no longer counts this client,
	// so further requests could deadlock the Serve exit protocol.
	ErrDisconnected = errors.New("core: send after disconnect")

	// ErrDoubleReply is returned by ReplyCtx when there is no received
	// request outstanding for the target — replying twice would enqueue
	// a stray message the client will misattribute to its next request.
	ErrDoubleReply = errors.New("core: reply without outstanding request")

	// ErrPeerDead is returned by blocking *Ctx paths when the peer on
	// the other end of the port died (detected by the recovery sweeper):
	// a client blocked on a dead server's reply — or a server blocked on
	// a queue whose every producer is gone — unblocks with this instead
	// of hanging until its deadline. It is distinct from ErrShutdown so
	// callers can tell an orderly teardown from a partial failure.
	ErrPeerDead = errors.New("core: peer died")

	// ErrOverload is returned by the *Ctx send paths when the system is
	// saturated and the caller opted into bounded admission: the request
	// queue is at or above the high-water mark, or the handle's retry
	// budget is spent. The request was NOT enqueued — no reply is owed
	// and no payload lease has moved — so the caller may back off,
	// degrade, or drop the work. It is distinct from the ctx errors
	// (the caller's own deadline) and from ErrShutdown (the system is
	// going away): overload is a property of the current load, not of
	// this request or this system's lifetime. See overload.go.
	ErrOverload = errors.New("core: overloaded, request rejected")
)

// OpShutdown is the control opcode the plain (error-less) blocking verbs
// return when the system is shut down underneath them: Receive hands its
// loop a Msg{Op: OpShutdown, MsgMeta: MsgMeta{Client: -1}} so the loop
// can exit instead of panicking, and a plain Send unblocked by shutdown
// returns the same marker as its "reply". It is negative so it can never collide
// with application opcodes (which grow upward from OpEcho).
const OpShutdown int32 = -1

// ShutdownMsg is the marker message the plain blocking verbs return when
// unblocked by a system shutdown.
func ShutdownMsg() Msg { return Msg{Op: OpShutdown, MsgMeta: MsgMeta{Client: -1}} }

// plainMsg maps a *Ctx verb's result to its plain wrapper's:
//
//	nil                   the message itself
//	ErrUnknownAlgorithm   panic (a programming error)
//	any other error       the OpShutdown marker (ErrShutdown, ErrPeerDead;
//	                      ErrDisconnected and ErrOverload on a send)
//
// A Background context never ends, so no ctx error reaches it.
func plainMsg(m Msg, err error) Msg {
	if err == nil {
		return m
	}
	if err == ErrUnknownAlgorithm {
		panic(err)
	}
	return ShutdownMsg()
}

// shutdownErr maps a refusing/closed port to the right sentinel: a port
// whose peer died reports ErrPeerDead, an orderly teardown ErrShutdown.
func shutdownErr(q SendPort) error {
	if q.PeerDead() {
		return ErrPeerDead
	}
	return ErrShutdown
}

// deadOr upgrades an ErrShutdown that was caused by peer death (the
// sweeper closes the port's semaphore, so parked waiters surface
// ErrShutdown) to ErrPeerDead; other errors pass through untouched.
func deadOr(q SendPort, err error) error {
	if err == ErrShutdown && q.PeerDead() {
		return ErrPeerDead
	}
	return err
}
