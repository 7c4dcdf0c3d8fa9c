package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dylect/internal/fabric"
	"dylect/internal/harness"
	"dylect/internal/serve"
	"dylect/internal/system"
)

// Each restart cycle boots, on loopback in this process, a fabric worker
// over a warm cell store and a store-less coordinator whose ring holds that
// worker, then sends rounds of /v1/run requests from two closed-loop
// clients. A round asks for every experiment once, in a seeded order split
// into multi-experiment requests, so the first round settles the whole cell
// set through the fabric and the worker's store; later rounds are answered
// from the coordinator's memo.

// requestSize is the number of experiments per request: multi-experiment
// requests vary less in cost than single ones.
const requestSize = 4

// warmRequests is the number of memo-answered requests per cycle: enough
// for a 90th percentile with ten samples beyond it.
const warmRequests = 100

// serveLoad runs restart cycles and accumulates their measurements.
type serveLoad struct {
	cfg  harness.Config
	exps []string
	ref  *harness.Runner // holds every cell; answers ExportJSONFor
	rng  *rand.Rand
	tiny bool

	// want holds the SHA-256 of the compacted reference export of every
	// request seen, so the check's memory stays small next to the
	// service's.
	want map[string][32]byte
	// held is the live heap the service held at the end of the first
	// cycle, with every cell in both memos.
	held float64

	restartMS []float64 // boot start to first response
	settleS   []float64 // boot start to the end of the first round
	warmMS    []float64 // latency of memo-answered requests
	// cycleRate and cycleP90 are each cycle's memo-answered throughput and
	// 90th percentile latency. Their medians over cycles are reported, so a
	// burst of host noise that hits a few cycles moves neither.
	cycleRate []float64
	cycleP90  []float64
	spans     map[string][]float64 // Server-Timing spans, ms
	openMS    []float64            // worker store open at boot
	executeMS []float64            // coordinator Execute per cell
	executes  int
	dispatch  int
	hits      int
	lookups   int
	attempted int
	failed    int
	checks    []string
}

func newServeLoad(o *options, cfg harness.Config, exps []string, ref *harness.Runner) *serveLoad {
	return &serveLoad{
		cfg: cfg, exps: exps, ref: ref, tiny: o.tiny,
		rng:   rand.New(rand.NewSource(o.seed)),
		want:  map[string][32]byte{},
		spans: map[string][]float64{},
	}
}

// rounds draws one cycle's requests: rounds[0] is the first round.
func (sv *serveLoad) rounds() [][][]string {
	perRound := (len(sv.exps) + requestSize - 1) / requestSize
	n := 1 + (warmRequests+perRound-1)/perRound
	if sv.tiny {
		n = 2
	}
	out := make([][][]string, n)
	for i := range out {
		perm := sv.rng.Perm(len(sv.exps))
		for lo := 0; lo < len(perm); lo += requestSize {
			hi := min(lo+requestSize, len(perm))
			var req []string
			for _, j := range perm[lo:hi] {
				req = append(req, sv.exps[j])
			}
			out[i] = append(out[i], req)
		}
	}
	return out
}

// listener is one loopback HTTP server.
type listener struct {
	url  string
	srv  *http.Server
	done chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// stop shuts the server down and waits for its Serve loop to return.
func (l *listener) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		l.srv.Close()
	}
	<-l.done
}

// cellCounter counts the coordinator's cell dispatches as they leave it.
type cellCounter struct {
	next http.RoundTripper
	n    atomic.Int64
}

func (c *cellCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == fabric.CellPath {
		c.n.Add(1)
	}
	return c.next.RoundTrip(req)
}

// reply is one request's outcome, checked after the cycle ends.
type reply struct {
	exps    []string
	status  int
	body    []byte
	timing  string
	latency time.Duration
	err     error
}

// cycle boots the worker and coordinator over the store at dir, serves one
// cycle of rounds and shuts both down.
func (sv *serveLoad) cycle(dir string) error {
	rounds := sv.rounds()
	begin := time.Now()
	cp, err := harness.OpenCheckpointStore(dir, sv.cfg, harness.StoreOptions{Log: io.Discard})
	if err != nil {
		return err
	}
	defer cp.Close()
	sv.openMS = append(sv.openMS, ms(time.Since(begin)))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	worker := serve.New(serve.Options{Config: sv.cfg, Checkpoint: cp, Jobs: 2})
	worker.Start(ctx)
	fw := fabric.NewWorker(fabric.WorkerOptions{
		Runner: worker.Runner(), Checkpoint: cp, ConfigHash: harness.ConfigHash(sv.cfg),
		Schema: system.SchemaVersion, Ready: worker.Ready,
	})
	wmux := http.NewServeMux()
	wmux.Handle("/", worker.Handler())
	fw.Register(wmux)
	wl, err := listen(wmux)
	if err != nil {
		return err
	}

	fabricTransport := &http.Transport{}
	counter := &cellCounter{next: fabricTransport}
	coord := fabric.New(fabric.Config{
		Workers: []string{wl.url}, ConfigHash: harness.ConfigHash(sv.cfg),
		Schema: system.SchemaVersion, HTTP: &http.Client{Transport: counter},
	})
	front := serve.New(serve.Options{Config: sv.cfg, Jobs: 2})
	var execMu sync.Mutex
	var execMS []float64
	execFailed := 0
	front.Runner().SetRemoteExecutor(func(ctx context.Context, spec harness.CellSpec) ([]byte, error) {
		t := time.Now()
		payload, err := coord.Execute(ctx, spec)
		d := time.Since(t)
		execMu.Lock()
		execMS = append(execMS, ms(d))
		if err != nil {
			execFailed++
		}
		execMu.Unlock()
		return payload, err
	})
	coord.Start(ctx)
	front.Start(ctx)
	fl, err := listen(front.Handler())
	if err != nil {
		coord.Stop()
		wl.stop()
		return err
	}
	clientTransport := &http.Transport{}
	client := &http.Client{Transport: clientTransport}

	var firstOnce sync.Once
	var restart time.Duration
	first := sv.send(client, fl.url, rounds[0], func() {
		firstOnce.Do(func() { restart = time.Since(begin) })
	})
	settle := time.Since(begin)
	var rest [][]string
	for _, r := range rounds[1:] {
		rest = append(rest, r...)
	}
	warmAt := time.Now()
	warm := sv.send(client, fl.url, rest, nil)
	warmSpan := time.Since(warmAt)

	// On the first cycle, the heap the service holds: live heap with both
	// servers up and every cell in their memos, less live heap once they
	// are shut down. Neither collection falls in a measured interval.
	var up float64
	firstCycle := len(sv.restartMS) == 0
	if firstCycle {
		up = liveHeapMB()
	}
	// Each side's client closes its idle connections before the server
	// shuts down: a server waits up to 5 s on a connection that was dialed
	// but never carried a request.
	dctx, dcancel := context.WithTimeout(ctx, 10*time.Second)
	front.Drain(dctx)
	clientTransport.CloseIdleConnections()
	fl.stop()
	coord.Stop()
	worker.Drain(dctx)
	fw.Drain(dctx)
	fabricTransport.CloseIdleConnections()
	wl.stop()
	dcancel()
	simulated, stored, st := worker.Runner().Runs(), cp.Stored(), cp.StoreStats()
	if firstCycle {
		sv.held = up - liveHeapMB()
	}
	runtime.KeepAlive(rest)

	sv.restartMS = append(sv.restartMS, ms(restart))
	sv.settleS = append(sv.settleS, settle.Seconds())
	sv.executeMS = append(sv.executeMS, execMS...)
	sv.executes += len(execMS)
	sv.dispatch += int(counter.n.Load())
	sv.hits += st.Hits
	sv.lookups += st.Hits + st.Misses
	if simulated != 0 || stored != 0 {
		sv.checks = append(sv.checks, fmt.Sprintf("worker simulated %d cells and stored %d; the store should answer every cell", simulated, stored))
	}
	if execFailed > 0 {
		sv.checks = append(sv.checks, fmt.Sprintf("%d fabric executions failed", execFailed))
	}
	if d := int(counter.n.Load()) - len(execMS); d != 0 {
		sv.checks = append(sv.checks, fmt.Sprintf("%d fabric dispatches beyond one per cell", d))
	}
	for _, rp := range first {
		sv.check(rp)
	}
	var lat []float64
	for _, rp := range warm {
		sv.check(rp)
		if rp.err == nil && rp.status == http.StatusOK {
			lat = append(lat, ms(rp.latency))
		}
	}
	sv.warmMS = append(sv.warmMS, lat...)
	sv.cycleRate = append(sv.cycleRate, ratio(float64(len(lat)), warmSpan.Seconds()))
	sv.cycleP90 = append(sv.cycleP90, quantile(lat, 0.9))
	return nil
}

// run serves restart cycles over the store at dir until d has passed,
// finishing the cycle in progress; a tiny run serves one.
func (sv *serveLoad) run(dir string, d time.Duration) error {
	begin := time.Now()
	for n := 0; n == 0 || (!sv.tiny && time.Since(begin) < d); n++ {
		if err := sv.cycle(dir); err != nil {
			return err
		}
	}
	return nil
}

// send posts reqs from two closed-loop clients and returns the replies in
// request order. onOK runs after each successful reply.
func (sv *serveLoad) send(client *http.Client, base string, reqs [][]string, onOK func()) []reply {
	out := make([]reply, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				out[i] = post(client, base, reqs[i], fmt.Sprintf("client-%d", c))
				if onOK != nil && out[i].err == nil && out[i].status == http.StatusOK {
					onOK()
				}
			}
		}(c)
	}
	wg.Wait()
	return out
}

func post(client *http.Client, base string, exps []string, who string) reply {
	rp := reply{exps: exps}
	body, err := json.Marshal(serve.RunRequest{Experiments: exps, Client: who})
	if err != nil {
		rp.err = err
		return rp
	}
	t := time.Now()
	resp, err := client.Post(base+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		rp.err = err
		return rp
	}
	rp.body, rp.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	rp.latency = time.Since(t)
	rp.status = resp.StatusCode
	rp.timing = resp.Header.Get("Server-Timing")
	return rp
}

// check verifies one reply against the reference export and records its
// Server-Timing spans.
func (sv *serveLoad) check(rp reply) {
	sv.attempted++
	bad := func(format string, args ...any) {
		sv.failed++
		sv.checks = append(sv.checks, fmt.Sprintf("request %v: ", rp.exps)+fmt.Sprintf(format, args...))
	}
	if rp.err != nil {
		bad("%v", rp.err)
		return
	}
	if rp.status != http.StatusOK {
		bad("status %d: %s", rp.status, bytes.TrimSpace(rp.body))
		return
	}
	var resp serve.RunResponse
	if err := json.Unmarshal(rp.body, &resp); err != nil {
		bad("response does not decode: %v", err)
		return
	}
	if resp.Partial || len(resp.Experiments) != len(rp.exps) {
		bad("partial response")
		return
	}
	want, err := sv.reference(rp.exps)
	if err != nil {
		bad("reference export: %v", err)
		return
	}
	if sha256.Sum256(resp.Results) != want {
		bad("results differ from the direct export")
		return
	}
	spans := map[string]float64{}
	for _, part := range strings.Split(rp.timing, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(dur, 64); err == nil {
			spans[name] = v
		}
	}
	// The header prints 0.1 ms steps, which the admission queue's own span
	// rarely reaches; the time before the run starts (decode, pricing and
	// admission) is the total less the run and export spans.
	sv.spans["queue"] = append(sv.spans["queue"], spans["total"]-spans["run"]-spans["export"])
	sv.spans["run"] = append(sv.spans["run"], spans["run"])
	sv.spans["export"] = append(sv.spans["export"], spans["export"])
}

// reference returns the digest of the compacted direct export for a
// request's experiments: the bytes a correct response carries in its
// results field.
func (sv *serveLoad) reference(exps []string) ([32]byte, error) {
	key := strings.Join(exps, ",")
	if d, ok := sv.want[key]; ok {
		return d, nil
	}
	var list []harness.Experiment
	for _, n := range exps {
		e, ok := harness.ByName(n)
		if !ok {
			return [32]byte{}, fmt.Errorf("unknown experiment %q", n)
		}
		list = append(list, e)
	}
	raw, err := sv.ref.ExportJSONFor(list)
	if err != nil {
		return [32]byte{}, err
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return [32]byte{}, err
	}
	d := sha256.Sum256(buf.Bytes())
	sv.want[key] = d
	return d, nil
}

// report moves the cycles' measurements into the outcome.
func (sv *serveLoad) report(oc *outcome) {
	oc.attempted += sv.attempted
	oc.failed += sv.failed
	oc.checks = append(oc.checks, sv.checks...)
	oc.set("req_per_s", median(sv.cycleRate))
	oc.set("req_p50_ms", median(sv.warmMS))
	oc.set("req_p90_ms", median(sv.cycleP90))
	oc.set("restart_ms", median(sv.restartMS))
	oc.set("serve.queue_ms", mean(sv.spans["queue"]))
	oc.set("serve.run_ms", mean(sv.spans["run"]))
	oc.set("serve.export_ms", mean(sv.spans["export"]))
	oc.set("serve.req_p99_ms", quantile(sv.warmMS, 0.99))
	oc.set("fabric.execute_ms", mean(sv.executeMS))
	oc.set("fabric.dispatches", float64(sv.dispatch))
	oc.set("fabric.retries", float64(sv.dispatch-sv.executes))
	oc.set("cellstore.open_ms", median(sv.openMS))
	oc.set("cellstore.hit_rate", ratio(float64(sv.hits), float64(sv.lookups)))
}

// runServeWarm populates a worker store (set-up), then runs restart cycles
// over it for the measured time.
func runServeWarm(o *options, oc *outcome) error {
	cfg := serveStore.config(o)
	exps, err := serveStore.experiments()
	if err != nil {
		return err
	}
	if o.traced {
		return traceLoad(o, oc, serveStore, cfg, exps)
	}
	var setups []float64
	var last *settled
	var dir string
	for i := 0; i < 3; i++ {
		dir = filepath.Join(o.scratch, fmt.Sprintf("store-%d", i))
		s, err := settle(cfg, exps, dir, nil)
		if err != nil {
			return err
		}
		s.cp.Close()
		if s.failed > 0 {
			return errors.New("set-up failed to simulate the store's cells")
		}
		setups = append(setups, s.wall.Seconds())
		if last != nil && !bytes.Equal(last.export, s.export) {
			oc.fail("set-up %d export differs from set-up 1", i+1)
		}
		last = s
	}
	oc.set("setup_s", median(setups))
	sv := newServeLoad(o, cfg, names(exps), last.runner)
	if err := sv.run(dir, o.seconds); err != nil {
		return err
	}
	sv.report(oc)
	oc.set("wall_s", median(sv.settleS))
	oc.set("retained_heap_mb", sv.held)
	return nil
}
