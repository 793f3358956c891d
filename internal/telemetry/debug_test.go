package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
)

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.Unmarshal(body, into); err != nil {
		t.Fatalf("GET %s: bad JSON: %v\n%s", url, err, body)
	}
}

// fetchMetrics GETs url and decodes the /debug/metrics JSON. Unlike
// getJSON it reports failure as an error, for use off the test
// goroutine.
func fetchMetrics(url string) (map[string]int64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	var m map[string]int64
	err = json.NewDecoder(resp.Body).Decode(&m)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return m, err
}

// staticSource serves a fixed snapshot.
func staticSource(s Snapshot) func() Snapshot { return func() Snapshot { return s } }

func TestDebugServer(t *testing.T) {
	d, err := StartDebugServer("127.0.0.1:0", staticSource(Snapshot{"llc.misses": 42, "prefetch.in_flight": -3}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	var metrics map[string]int64
	getJSON(t, fmt.Sprintf("http://%s/debug/metrics", d.Addr), &metrics)
	if metrics["llc.misses"] != 42 || metrics["prefetch.in_flight"] != -3 {
		t.Fatalf("metrics = %v", metrics)
	}

	var vars map[string]json.RawMessage
	getJSON(t, fmt.Sprintf("http://%s/debug/vars", d.Addr), &vars)
	raw, ok := vars["telemetry"]
	if !ok {
		t.Fatalf("expvar missing telemetry key: %v", vars)
	}
	var snap map[string]int64
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap["llc.misses"] != 42 {
		t.Fatalf("expvar telemetry = %v", snap)
	}

	// pprof index answers.
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/", d.Addr))
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: %s", resp.Status)
	}
}

// TestDebugServerSwapsRegistry pins that a second server retargets the
// global expvar hook to its own source instead of panicking on a
// duplicate Publish.
func TestDebugServerSwapsRegistry(t *testing.T) {
	d1, err := StartDebugServer("127.0.0.1:0", staticSource(Snapshot{"a.one": 1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := StartDebugServer("127.0.0.1:0", staticSource(Snapshot{"b.two": 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d2.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	var metrics map[string]int64
	getJSON(t, fmt.Sprintf("http://%s/debug/metrics", d2.Addr), &metrics)
	if metrics["b.two"] != 2 || len(metrics) != 1 {
		t.Fatalf("metrics = %v", metrics)
	}
	var vars map[string]json.RawMessage
	getJSON(t, fmt.Sprintf("http://%s/debug/vars", d2.Addr), &vars)
	var snap map[string]int64
	if err := json.Unmarshal(vars["telemetry"], &snap); err != nil {
		t.Fatal(err)
	}
	if snap["b.two"] != 2 || len(snap) != 1 {
		t.Fatalf("expvar telemetry after the swap = %v", snap)
	}
	if _, err := StartDebugServer("127.0.0.1:0", nil); err == nil {
		t.Fatal("nil metrics source accepted")
	}
}

// TestDebugServerReadsWholeSnapshots fetches /debug/metrics from another
// goroutine while a Collector closes epochs. Every epoch's totals are a
// function of its index, so a response mixing two epochs, or a map read
// while it is being written (which -race reports), fails.
func TestDebugServerReadsWholeSnapshots(t *testing.T) {
	const epochs = 300
	c := NewCollector(10)
	c.BindLifecycle(NewLifecycle(2))
	d, err := StartDebugServer("127.0.0.1:0", c.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	// The sampler waits for a fetch every tenth epoch, so fetches land
	// throughout the run rather than only after it. The fetcher closes
	// stopped when it returns, so a failed fetch cannot hang the sampler.
	done, stopped := make(chan struct{}), make(chan struct{})
	progress := make(chan struct{}, 1)
	var fetched, whole int
	go func() {
		defer close(stopped)
		url := fmt.Sprintf("http://%s/debug/metrics", d.Addr)
		for {
			select {
			case <-done:
				return
			default:
			}
			m, err := fetchMetrics(url)
			if err != nil {
				t.Error(err)
				return
			}
			fetched++
			select {
			case progress <- struct{}{}:
			default:
			}
			if len(m) == 0 {
				continue // before the first epoch close
			}
			n := uint64(m["sim.epochs"])
			want := totalsAt(n, 2)
			if len(m) != 33 || m["llc.accesses"] != int64(want.LLC.Accesses) ||
				m["dram.reads"] != int64(want.DRAM.Reads) ||
				m["sim.measured_cycles"] != int64(10*n) {
				t.Errorf("snapshot mixes epochs or misses keys at sim.epochs=%d: %v", n, m)
			}
			whole++
		}
	}()

	c.Begin(0)
	for i := uint64(1); i <= epochs; i++ {
		c.Sample(10*i, totalsAt(i, 2))
		if i%10 == 0 {
			select {
			case <-progress:
			case <-stopped:
			}
		}
	}
	c.Finish(10*epochs, totalsAt(epochs, 2))
	close(done)
	<-stopped
	if whole == 0 {
		t.Fatalf("none of %d fetches saw a mid-run snapshot", fetched)
	}
	t.Logf("%d fetches, %d mid-run snapshots checked", fetched, whole)
}
