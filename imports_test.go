package ulipc_test

import (
	"os/exec"
	"strings"
	"testing"
)

// The library links no network stack: nothing ulipc imports, directly
// or transitively, may be net, crypto, compress or expvar. A process
// that talks over a shared segment should not also initialise an HTTP
// server's dependencies at every start; metrics reach HTTP or expvar
// through a caller's adapter (ExampleSystem_WritePrometheus).
func TestNoNetworkStackImports(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	out, err := exec.Command(goTool, "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	deps := strings.Fields(string(out))
	if len(deps) == 0 {
		t.Fatal("go list -deps listed nothing")
	}
	var bad []string
	for _, p := range deps {
		switch root, _, _ := strings.Cut(p, "/"); root {
		case "net", "crypto", "compress", "expvar":
			bad = append(bad, p)
		}
	}
	if len(bad) > 0 {
		t.Fatalf("ulipc imports %d network-stack packages: %s", len(bad), strings.Join(bad, " "))
	}
}
