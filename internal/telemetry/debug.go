package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
)

// Debug HTTP server: net/http/pprof profiles, expvar, and a JSON view
// of a metric Snapshot source, served on a loopback (or any) address
// behind the CLIs' -debug-addr flag. A source must be safe to call from
// the server's goroutines, as Collector.Metrics and the harness's
// Matrix.Progress are. The server only reads, so it is safe to run
// alongside a live simulation and cannot perturb simulated state.

// debugSource is the source currently exposed via expvar. expvar.Publish
// is global and permanent, so the expvar hook is installed once and
// indirects through this pointer; starting a new debug server swaps the
// source.
var (
	debugSource atomic.Pointer[func() Snapshot]
	expvarOnce  sync.Once
	//conc:immutable assigned once at package init; only ever called through expvarOnce
	expvarInstal = func() {
		expvar.Publish("telemetry", expvar.Func(func() any {
			if src := debugSource.Load(); src != nil {
				return (*src)()
			}
			return Snapshot{}
		}))
	}
)

// DebugServer is a running debug endpoint. Close it to stop serving.
type DebugServer struct {
	// Addr is the bound address (useful with ":0" listeners).
	Addr string

	srv *http.Server
	ln  net.Listener
}

// StartDebugServer serves /debug/pprof/*, /debug/vars (expvar, with the
// source's snapshot under the "telemetry" key), and /debug/metrics (the
// snapshot as plain JSON) on addr. It returns once the listener is
// bound; serving proceeds on a background goroutine.
func StartDebugServer(addr string, source func() Snapshot) (*DebugServer, error) {
	if source == nil {
		return nil, fmt.Errorf("telemetry: debug server needs a metrics source")
	}
	expvarOnce.Do(expvarInstal)
	debugSource.Store(&source)

	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		// encoding/json writes map keys sorted.
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(source()); err != nil {
			// The client hung up mid-response; nothing to clean up.
			return
		}
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: debug server: %w", err)
	}
	d := &DebugServer{Addr: ln.Addr().String(), srv: &http.Server{Handler: mux}, ln: ln}
	go func() {
		// Serve returns ErrServerClosed (or a listener error) once Close
		// runs; either way there is nobody left to report it to.
		_ = d.srv.Serve(ln)
	}()
	return d, nil
}

// Close stops the server and releases the listener.
func (d *DebugServer) Close() error {
	return d.srv.Close()
}
