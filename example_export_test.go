package ulipc_test

import (
	"expvar"
	"net/http"

	"ulipc"
)

// The library writes its metrics to an io.Writer and returns them as
// plain data, so it links no network stack. A caller mounts them on
// HTTP and expvar with an adapter of a few lines each.
func ExampleSystem_WritePrometheus() {
	sys, err := ulipc.NewSystem(ulipc.Options{Alg: ulipc.BSLS, Clients: 4,
		Observer: ulipc.NewObserver(ulipc.ObserverConfig{})})
	if err != nil {
		panic(err)
	}
	http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		sys.WritePrometheus(w)
	})
	expvar.Publish("ulipc", expvar.Func(func() any { return sys.MetricsV2() }))
}
