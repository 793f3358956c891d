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
// of a Registry, served on a loopback (or any) address behind the CLIs'
// -debug-addr flag. The server only ever reads atomic metric values, so
// it is safe to run alongside a live simulation; it cannot perturb
// simulated state.

// debugReg is the registry currently exposed via expvar. expvar.Publish
// is global and permanent, so the expvar hook is installed once and
// indirects through this pointer; starting a new debug server swaps the
// target.
var (
	debugReg   atomic.Pointer[Registry]
	expvarOnce sync.Once
	//conc:immutable assigned once at package init; only ever called through expvarOnce
	expvarInstal = func() {
		expvar.Publish("telemetry", expvar.Func(func() any {
			if r := debugReg.Load(); r != nil {
				return r.Snapshot()
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
// registry under the "telemetry" key), and /debug/metrics (the registry
// snapshot as plain JSON) on addr. It returns once the listener is
// bound; serving proceeds on a background goroutine.
func StartDebugServer(addr string, reg *Registry) (*DebugServer, error) {
	if reg == nil {
		return nil, fmt.Errorf("telemetry: debug server needs a registry")
	}
	expvarOnce.Do(expvarInstal)
	debugReg.Store(reg)

	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		snap := reg.Snapshot()
		out := make(map[string]int64, len(snap))
		for _, name := range snap.Names() {
			out[name] = snap[name]
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
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
