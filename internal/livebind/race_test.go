//go:build !race

package livebind

// raceEnabled reports whether the race detector is compiled in; the
// allocation tests skip under it, since its instrumentation allocates.
const raceEnabled = false
