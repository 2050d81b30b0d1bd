package livebind

import "errors"

// Typed configuration and topology errors of the v2 entry points.
// NewSystem and the handle constructors wrap these sentinels (with
// detail text), so callers branch with errors.Is instead of matching
// message strings.
var (
	// ErrBadClients reports an Options.Clients value outside [1, ∞).
	ErrBadClients = errors.New("livebind: invalid client count")

	// ErrBadOption reports an Options field with a nonsensical value
	// (negative capacities, batch sizes, spin budgets, ...).
	ErrBadOption = errors.New("livebind: invalid option")

	// ErrSPSCTopology reports a configuration or handle acquisition that
	// would break the single-producer/single-consumer guarantee of an
	// SPSC ring — a second producer on a reply channel, KindSPSC for the
	// shared receive queue, MPMCReplies on a server group's rings.
	ErrSPSCTopology = errors.New("livebind: SPSC topology violation")

	// ErrNoFreeSlots reports that ConnectCtx found every pre-allocated
	// client slot in use.
	ErrNoFreeSlots = errors.New("livebind: all client slots in use")

	// ErrBadTuning reports a contradictory tuning configuration: the
	// adaptive controller (Alg BSA) combined with a hand-set spin budget
	// or a wake throttle. The controller owns those knobs — a fixed
	// MaxSpin under BSA would be silently ignored, so it is rejected
	// instead.
	ErrBadTuning = errors.New("livebind: contradictory tuning")
)
