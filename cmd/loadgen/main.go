// Command loadgen is mapd's kill-and-restart drill: the one serving
// check that needs a real process and a real SIGKILL. The in-process
// fleet tests (internal/cluster) and serve's tests check everything
// else.
//
// loadgen owns the server lifecycle. It starts the -mapd binary with
// -store-dir, prices -requests distinct mappings (phase one: all 200,
// each one persisted), kills the process with SIGKILL — no drain, no
// flush beyond what the store already fsynced — restarts it over the
// same store directory, and replays the identical request sequence. The
// drill then asserts exact warmth: every phase-two answer is
// byte-identical to phase one, serve.store.hits equals the request
// count, the recovered store holds every record, and the restarted eval
// cache recorded zero misses and the store zero new puts — the store,
// not re-evaluation, answered everything. Exit status 1 on any miss.
//
// The final stdout line is machine-parseable:
//
//	loadgen restart: requests=24 ok=48 err5xx=0 store_hits=24 store_records=24 evalcache_misses=0
//
// Usage:
//
//	loadgen -mapd ./mapd -store-dir /tmp/atlas -listen 127.0.0.1:18080 -requests 24 -seed 7
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"syscall"
	"time"
)

func main() {
	mapdBin := flag.String("mapd", "", "path to the mapd binary (required)")
	storeDir := flag.String("store-dir", "", "mapping store directory (empty = a fresh temp dir)")
	listen := flag.String("listen", "127.0.0.1:18080", "address the spawned mapd listens on")
	requests := flag.Int("requests", 24, "distinct mappings priced in each phase")
	seed := flag.Int64("seed", 1, "request seed; same seed, same request sequence")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request client timeout")
	flag.Parse()

	c := &client{base: "http://" + *listen, http: &http.Client{Timeout: *timeout}}
	if err := runRestart(c, *mapdBin, *storeDir, *listen, *requests, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: FAIL: %v\n", err)
		os.Exit(1)
	}
}

// client is a minimal JSON client for the mapd API.
type client struct {
	base string
	http *http.Client
}

// call sends body to path and decodes a 200 answer's JSON into out
// (which may be nil), returning the HTTP status.
func (c *client) call(method, path, body string, out any) (int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader([]byte(body)))
	if err != nil {
		return 0, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode == 200 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// evalResponse mirrors the serve wire type (duplicated so loadgen
// exercises mapd strictly over the wire, as a real client would).
type evalResponse struct {
	Degraded bool `json:"degraded"`
	// Costs is kept raw so answers compare across server lives byte
	// for byte.
	Costs json.RawMessage `json:"costs"`
}

type metricsSnapshot struct {
	Counters map[string]int64   `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
}

// genRestartBodies builds n distinct eval requests from the seed: one
// antidiagonal stride each over a fixed recurrence and target, so every
// request is exactly one (graph, schedule, target) triple. Distinctness
// is what makes the drill's counts exact — n requests, n store puts in
// phase one, n store hits in phase two.
func genRestartBodies(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(900)
	bodies := make([]string, n)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{
			"recurrence": {"dims": [7, 7], "deps": [[1, 0], [0, 1]]},
			"target": {"width": 4},
			"schedules": [{"kind": "antidiagonal", "stride": %d}],
			"deadline_ms": 60000
		}`, 100+perm[i])
	}
	return bodies
}

// spawnMapd starts the mapd binary against storeDir and waits for it to
// answer /healthz. The caller owns the returned process.
func spawnMapd(c *client, mapdBin, storeDir, listen string) (*exec.Cmd, error) {
	cmd := exec.Command(mapdBin, "-listen", listen, "-store-dir", storeDir)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", mapdBin, err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if status, err := c.call("GET", "/healthz", "", nil); err == nil && status == 200 {
			return cmd, nil
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			return nil, fmt.Errorf("mapd on %s never became healthy", listen)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// restartPhase issues each body once, sequentially, requiring a clean
// 200 for every one, and returns the raw costs arrays in request order.
func restartPhase(c *client, name string, bodies []string) ([]string, error) {
	costs := make([]string, len(bodies))
	for i, body := range bodies {
		var ev evalResponse
		status, err := c.call("POST", "/v1/eval", body, &ev)
		switch {
		case err != nil:
			return nil, fmt.Errorf("%s request %d: %w", name, i, err)
		case status != 200:
			return nil, fmt.Errorf("%s request %d: status %d", name, i, status)
		case ev.Degraded:
			return nil, fmt.Errorf("%s request %d: unexpectedly degraded", name, i)
		case len(ev.Costs) == 0:
			return nil, fmt.Errorf("%s request %d: no costs in answer", name, i)
		}
		costs[i] = string(ev.Costs)
	}
	return costs, nil
}

// scrape fetches mapd's /v1/metrics.
func scrape(c *client, name string) (metricsSnapshot, error) {
	var snap metricsSnapshot
	if status, err := c.call("GET", "/v1/metrics", "", &snap); err != nil || status != 200 {
		return snap, fmt.Errorf("%s metrics scrape: status %d, %v", name, status, err)
	}
	return snap, nil
}

// runRestart is the kill-and-restart warmth drill. It proves the
// persistent store makes a SIGKILLed server's pricing survive: the
// second life must answer the identical request sequence byte for byte
// from disk — exact store-hit counts, zero eval-cache misses, zero 5xx.
func runRestart(c *client, mapdBin, storeDir, listen string, requests int, seed int64) error {
	if mapdBin == "" {
		return fmt.Errorf("need -mapd (path to the mapd binary)")
	}
	if storeDir == "" {
		dir, err := os.MkdirTemp("", "loadgen-atlas-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		storeDir = dir
	}
	bodies := genRestartBodies(seed, requests)

	// Phase one: a fresh server prices everything and persists as it goes.
	first, err := spawnMapd(c, mapdBin, storeDir, listen)
	if err != nil {
		return err
	}
	phase1, err := restartPhase(c, "phase 1", bodies)
	var snap1 metricsSnapshot
	if err == nil {
		snap1, err = scrape(c, "phase 1")
	}
	if err == nil && snap1.Counters["serve.store.puts"] != int64(requests) {
		err = fmt.Errorf("phase 1 persisted %d mappings, want %d", snap1.Counters["serve.store.puts"], requests)
	}

	// The crash: SIGKILL, not a drain. Whatever warmth survives is owed
	// entirely to the store's per-put fsync.
	if kerr := first.Process.Kill(); err == nil && kerr != nil {
		err = fmt.Errorf("kill mapd: %w", kerr)
	}
	_ = first.Wait()
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "loadgen: mapd killed (SIGKILL); restarting over the same store")

	// Phase two: the restarted server must answer from the recovered atlas.
	second, err := spawnMapd(c, mapdBin, storeDir, listen)
	if err != nil {
		return err
	}
	defer func() {
		_ = second.Process.Signal(syscall.SIGTERM)
		_ = second.Wait()
	}()
	phase2, err := restartPhase(c, "phase 2", bodies)
	if err != nil {
		return err
	}
	for i := range phase1 {
		if phase1[i] != phase2[i] {
			return fmt.Errorf("answer %d changed across restart:\n  before: %s\n  after:  %s", i, phase1[i], phase2[i])
		}
	}
	snap2, err := scrape(c, "phase 2")
	if err != nil {
		return err
	}
	hits, records := snap2.Counters["serve.store.hits"], int64(snap2.Gauges["store.records"])
	misses, puts := snap2.Gauges["search.evalcache.misses"], snap2.Counters["serve.store.puts"]

	fmt.Printf("loadgen restart: requests=%d ok=%d err5xx=0 store_hits=%d store_records=%d evalcache_misses=%g\n",
		requests, 2*requests, hits, records, misses)

	switch {
	case hits != int64(requests):
		return fmt.Errorf("restarted server hit the store %d times, want exactly %d", hits, requests)
	case records != int64(requests):
		return fmt.Errorf("recovered store holds %d records, want %d", records, requests)
	case misses != 0:
		return fmt.Errorf("restarted server re-priced %g mappings; the store should have answered all of them", misses)
	case puts != 0:
		return fmt.Errorf("restarted server re-persisted %d mappings; dedup should make this 0", puts)
	}
	return nil
}
