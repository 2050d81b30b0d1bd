package core

import (
	"fmt"

	"ulipc/internal/obs"
)

// protocolInfo is one row of the protocol registry: the algorithm
// value and its canonical (paper) name, whose lower-case form is the
// parse alias.
type protocolInfo struct {
	Alg  Algorithm
	Name string
}

// protocols is THE registration table: Algorithms, AlgorithmByName,
// Algorithm.String and the per-protocol histogram-set names in
// internal/obs all derive from it. Adding a protocol means adding one
// row here (plus its dispatch arms), not editing N switch statements.
// Rows must be dense and in Algorithm order — init checks.
var protocols = [...]protocolInfo{
	{BSS, "BSS"},   // Both Sides Spin (Figure 1)
	{BSW, "BSW"},   // Both Sides Wait (Figure 5)
	{BSWY, "BSWY"}, // Both Sides Wait and Yield (Figure 7)
	{BSLS, "BSLS"}, // Both Sides Limited Spin (Figure 9)
	{BSA, "BSA"},   // Both Sides Adaptive (online spin-budget controller)
}

func init() {
	for i, p := range protocols {
		if p.Alg != Algorithm(i) {
			panic(fmt.Sprintf("core: protocol table row %d registers %v", i, p.Alg))
		}
	}
	// The obs package cannot import core, so the registry pushes the
	// protocol naming down: every observer built with the default config
	// indexes its histogram sets by these names.
	obs.DefaultProtoNames = AlgorithmNames()
}

// Algorithms lists all protocols in presentation (registration) order.
func Algorithms() []Algorithm {
	out := make([]Algorithm, len(protocols))
	for i, p := range protocols {
		out[i] = p.Alg
	}
	return out
}

// AlgorithmNames lists the canonical protocol names in registration
// order, indexed by Algorithm value.
func AlgorithmNames() []string {
	out := make([]string, len(protocols))
	for i, p := range protocols {
		out[i] = p.Name
	}
	return out
}

// ValidAlgorithm reports whether a is a registered protocol.
func ValidAlgorithm(a Algorithm) bool {
	return a >= 0 && int(a) < len(protocols)
}

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	if ValidAlgorithm(a) {
		return protocols[a].Name
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// AlgorithmByName parses a protocol name — the canonical upper-case
// form or its lower-case alias, as printed by String.
func AlgorithmByName(s string) (Algorithm, error) {
	for _, p := range protocols {
		if s == p.Name || s == lower(p.Name) {
			return p.Alg, nil
		}
	}
	return 0, fmt.Errorf("core: unknown algorithm %q", s)
}

// lower is an ASCII-only lowercase (the table holds ASCII names; avoids
// pulling strings into the hot-path package for one call site).
func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}
