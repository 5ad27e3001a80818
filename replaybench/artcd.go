package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rootreplay/internal/artc"
	"rootreplay/internal/artifact"
	"rootreplay/internal/magritte"
	"rootreplay/internal/serve"
	"rootreplay/internal/shard"
	"rootreplay/internal/sim"
	"rootreplay/internal/stack"
)

// pollInterval is how often a client asks for a job's result; it is
// the resolution of the job latencies. It is this benchmark's choice,
// fine against jobs that mostly take a few milliseconds, not an
// observed client habit.
const pollInterval = time.Millisecond

// artcdProc is an in-process artcd: the service handler on a loopback
// listener, over a fresh artifact store.
type artcdProc struct {
	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	dir    string
	base   string
	client *http.Client
}

// startArtcd starts the service on a fresh, empty store and returns
// once /healthz answers, with the time from opening the store. Creating
// the store's directory is not timed; it keeps each service apart,
// whereas artcd opens a cache directory that outlives it.
func startArtcd(out string) (*artcdProc, time.Duration, error) {
	dir, err := os.MkdirTemp(out, "artcd-store-")
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	store, err := artifact.Open(dir, 0)
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	a := &artcdProc{
		srv:    serve.New(serve.Config{Store: store}),
		served: make(chan struct{}),
		dir:    dir,
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
	}
	a.hs = &http.Server{Handler: a.srv}
	go func() {
		defer close(a.served)
		// Serve returns http.ErrServerClosed once stop shuts it down; a
		// failed start shows as a failed /healthz below.
		_ = a.hs.Serve(ln)
	}()
	resp, err := a.client.Get(a.base + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		a.stop()
		return nil, 0, err
	}
	return a, time.Since(t0), nil
}

// stop drains the service, waits for its goroutines, and removes its
// store.
func (a *artcdProc) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := a.hs.Shutdown(ctx)
	<-a.served
	err = errors.Join(err, a.srv.Shutdown(ctx))
	a.client.CloseIdleConnections()
	return errors.Join(err, os.RemoveAll(a.dir))
}

// call sends one request and returns the body of an expected status.
func (a *artcdProc) call(method, path string, body []byte, want int) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, a.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode != want {
		return data, resp.StatusCode, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(data)))
	}
	return data, resp.StatusCode, nil
}

// jobOut is one job as its client saw it.
type jobOut struct {
	round                  int
	kind                   string
	upload, submit, result time.Duration
	latency, report        time.Duration // submit → result, upload → result
	queueWait, run         time.Duration // from the job status timestamps
	body                   []byte
	bytes                  int
}

// upload stores one blob (a trace or a snapshot) for a tenant and
// returns its id.
func (a *artcdProc) upload(tenant string, data []byte) (string, error) {
	body, _, err := a.call(http.MethodPost, "/v1/tenants/"+tenant+"/traces", data, http.StatusOK)
	if err != nil {
		return "", err
	}
	var doc struct{ ID string }
	if err := json.Unmarshal(body, &doc); err != nil {
		return "", fmt.Errorf("upload response: %w", err)
	}
	return doc.ID, nil
}

// job uploads a trace (and its snapshot), submits one job, polls until
// the result body is in hand, then reads the job's status timestamps.
func (a *artcdProc) job(tr *tracer, op int64, tenant string, in input, kind string, shards int) (*jobOut, error) {
	base := "/v1/tenants/" + tenant
	out := &jobOut{kind: kind}
	root := tr.begin("job", 0, op)
	defer tr.end(root)
	t0 := time.Now()
	sp := tr.begin("serve.upload", root, op)
	req := map[string]any{"kind": kind, "format": "strace"}
	id, err := a.upload(tenant, in.raw)
	if err == nil {
		req["trace"] = id
		if in.snap != nil {
			id, err = a.upload(tenant, in.snap)
			req["snapshot"] = id
		}
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if shards > 0 {
		req["shards"] = shards
	}
	spec, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	out.upload = t1.Sub(t0)
	sp = tr.begin("serve.submit", root, op)
	body, _, err := a.call(http.MethodPost, base+"/jobs", spec, http.StatusAccepted)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	var st struct{ ID string }
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("submit response: %w", err)
	}
	t2 := time.Now()
	out.submit = t2.Sub(t1)
	sp = tr.begin("serve.result", root, op)
	for {
		body, code, err := a.call(http.MethodGet, base+"/jobs/"+st.ID+"/result", nil, http.StatusOK)
		if err == nil {
			out.body = body
			break
		}
		if code != http.StatusConflict || !bytes.Contains(body, []byte(`"job_not_done"`)) {
			tr.end(sp)
			return nil, err
		}
		time.Sleep(pollInterval)
	}
	tr.end(sp)
	t3 := time.Now()
	out.result = t3.Sub(t2)
	out.latency = t3.Sub(t1)
	out.report = t3.Sub(t0)

	body, _, err = a.call(http.MethodGet, base+"/jobs/"+st.ID, nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var status struct{ Created, Started, Finished time.Time }
	if err := json.Unmarshal(body, &status); err != nil {
		return nil, fmt.Errorf("job status: %w", err)
	}
	out.queueWait = status.Started.Sub(status.Created)
	out.run = status.Finished.Sub(status.Started)
	return out, nil
}

// scrape reads the service's /metrics counters.
func (a *artcdProc) scrape() (map[string]int64, error) {
	body, _, err := a.call(http.MethodGet, "/metrics", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	m := make(map[string]int64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseInt(val, 10, 64); err == nil {
			m[name] = v
		}
	}
	return m, sc.Err()
}

// expected is what a job's result must be, from the in-process replay
// of the same trace.
type expected struct {
	replay, export string // digests of the canonical replay doc and the export
}

func plainSum(data []byte) string {
	s := sha256.Sum256(data)
	return hex.EncodeToString(s[:])
}

func docSum(doc replayDoc, d *digests) (string, error) {
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	return d.sum(data), nil
}

func (e expected) check(j *jobOut) error {
	switch j.kind {
	case "replay":
		doc, err := canonicalDoc(j.body)
		if err != nil {
			return err
		}
		if got := plainSum(doc); got != e.replay {
			return fmt.Errorf("artcd replay result %.12s differs from the in-process report %.12s", got, e.replay)
		}
	case "export":
		if got := plainSum(j.body); got != e.export {
			return fmt.Errorf("artcd export %.12s differs from the in-process export %.12s", got, e.export)
		}
	}
	return nil
}

// serviceLayers derives the serve-layer metrics from the jobs and the
// /metrics scrapes of the rounds that ran them.
func serviceLayers(rc *runCtx, jobs []*jobOut, scrapes []map[string]int64) {
	m := rc.metrics
	var upload, submit, result []float64
	wait := map[string][]float64{}
	run := map[string][]float64{}
	var export []float64
	for _, j := range jobs {
		upload = append(upload, j.upload.Seconds())
		submit = append(submit, j.submit.Seconds())
		result = append(result, j.result.Seconds())
		wait[j.kind] = append(wait[j.kind], j.queueWait.Seconds())
		run[j.kind] = append(run[j.kind], j.run.Seconds())
		if j.kind == "export" {
			export = append(export, float64(j.bytes))
		}
	}
	m["serve.upload_s"] = median(upload)
	m["serve.submit_s"] = median(submit)
	m["serve.result_s"] = median(result)
	for _, k := range []string{"replay", "export"} {
		m["serve.queue_wait_s."+k] = median(wait[k])
		m["serve.run_s."+k] = median(run[k])
	}
	m["obs.export_bytes"] = median(export)
	var sum = func(name string) float64 {
		t := 0.0
		for _, s := range scrapes {
			t += float64(s[name])
		}
		return t / float64(len(scrapes))
	}
	hits, misses := sum("artcd_cache_hits"), sum("artcd_cache_misses")
	m["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["serve.compiles"] = sum("artcd_compiles")
	m["serve.compiles_shared"] = sum("artcd_compiles_shared")
	m["serve.rejected"] = sum("artcd_rejected_backpressure") + sum("artcd_rejected_budget")
}

// minTailJobs is how many jobs an untraced run takes whatever the
// deadline: enough to leave ten beyond job_tail_s's p98.
const minTailJobs = 500

// replayReps is how many times an untraced magritte-artcd run replays
// the compiled corpus in process for actions_per_s: once in the
// reference pass and four more times.
const replayReps = 5

// reference replays every corpus trace in process, the way artcd runs a
// job, and returns what each job's result must be. Traced, it is the
// corpus pass the per-layer metrics of magritte-artcd come from.
// Untraced, it also times the corpus's replay calls replayReps times
// and returns the median rate of replayed actions per second of them.
func reference(rc *runCtx, target stack.Config) ([]expected, *passOut, float64, error) {
	ps := passSetup{
		target: target,
		init: func(sys *stack.System, b *artc.Benchmark) error {
			return magritte.InitTarget(sys, b, target.Platform == stack.Linux)
		},
	}
	corpus := &passOut{}
	want := make([]expected, len(rc.in.traces))
	var corpusReport, corpusExport bytes.Buffer
	reps := 1
	if rc.tr == nil {
		reps = replayReps
	}
	replays := make([]time.Duration, reps)
	for i, in := range rc.in.traces {
		p, err := tracePass(rc, ps, in, rc.tr, true)
		if err != nil {
			return nil, nil, 0, err
		}
		replays[0] += p.replayCall
		corpus.records += p.records
		corpus.actions += p.actions
		corpus.parse.mallocs += p.parse.mallocs
		corpus.compile.mallocs += p.compile.mallocs
		corpus.replay.mallocs += p.replay.mallocs
		corpus.replay.bytes += p.replay.bytes
		corpus.gcs += p.gcs
		corpus.pause += p.pause
		corpus.counters.add(p.systems, p.rep)
		corpus.components += shard.Partition(p.b.Analysis, p.b.Graph).Stats().Components

		data, err := reportBytes(p.rep)
		if err != nil {
			return nil, nil, 0, err
		}
		fmt.Fprintf(&corpusReport, "%s %s\n", in.name, rc.dig.sum(data))
		for k := 1; k < reps; k++ {
			d, err := timedReplay(ps, p.b, data)
			if err != nil {
				return nil, nil, 0, fmt.Errorf("%s: %w", in.name, err)
			}
			replays[k] += d
		}
		if want[i].replay, err = docSum(replayDocOf(p.rep), rc.dig); err != nil {
			return nil, nil, 0, err
		}
		// Any trace may be drawn as an export job in some round.
		if want[i].export, err = exportSum(rc, ps, p.b); err != nil {
			return nil, nil, 0, fmt.Errorf("%s: export: %w", in.name, err)
		}
		fmt.Fprintf(&corpusExport, "%s %s\n", in.name, want[i].export)
		if rc.tr != nil {
			// The probes reuse this trace's compile: phases, partition,
			// artifact store, sharded replay.
			rc.attempt(func() error {
				if err := probeTrace(rc, ps, in, p.b, p.rep); err != nil {
					return fmt.Errorf("%s: %w", in.name, err)
				}
				return nil
			})
		}
	}
	rc.attempt(func() error {
		return errors.Join(
			rc.dig.check("corpus_reports", plainSum(corpusReport.Bytes())),
			rc.dig.check("corpus_exports", plainSum(corpusExport.Bytes())))
	})
	rates := make([]float64, reps)
	for k, d := range replays {
		rates[k] = float64(corpus.actions) / d.Seconds()
	}
	return want, corpus, median(rates), nil
}

// timedReplay replays b once more the way artcd's replay job does
// (magritte.InitTarget on a fresh machine, then serial artc.Replay) and
// returns the time of the replay call. The report must equal the
// reference report, data.
func timedReplay(ps passSetup, b *artc.Benchmark, data []byte) (time.Duration, error) {
	sys := stack.New(sim.NewKernel(), ps.target)
	if err := ps.init(sys, b); err != nil {
		return 0, fmt.Errorf("init: %w", err)
	}
	t0 := time.Now()
	rep, err := artc.Replay(sys, b, artc.Options{})
	d := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("replay: %w", err)
	}
	got, err := reportBytes(rep)
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(got, data) {
		return 0, errors.New("repeated replay differs from the reference report")
	}
	return d, nil
}

// probeTrace runs the traced-only probes for one corpus trace. The
// sharded replay must equal the serial one byte for byte: Magritte
// traces have no cross-component edges.
func probeTrace(rc *runCtx, ps passSetup, in input, b *artc.Benchmark, serial *artc.Report) error {
	pst, err := probeCompile(rc, in.raw, in.snap)
	if err != nil {
		return err
	}
	m := rc.metrics
	m["shard.components"] += float64(pst.Components)
	m["shard.largest_share"] += float64(pst.Largest) // divided by the corpus actions later
	m["core.edges_enforced"] += float64(len(b.Graph.Edges))
	m["core.edges_reduced"] += float64(b.Graph.ReducedEdges)
	if err := probeArtifact(rc, in.raw, in.snap, b); err != nil {
		return err
	}
	sp := rc.tr.begin("artc.replay_sharded", 0, rc.op())
	rep, _, err := artc.ReplaySharded(b, artc.Options{}, artc.ShardOptions{
		Shards: runtime.GOMAXPROCS(0), Target: ps.target,
		Init: func(sys *stack.System) error { return ps.init(sys, b) },
	})
	rc.tr.end(sp)
	if err != nil {
		return fmt.Errorf("sharded replay: %w", err)
	}
	a, err := reportBytes(serial)
	if err != nil {
		return err
	}
	s, err := reportBytes(rep)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, s) {
		return errors.New("sharded report differs from serial")
	}
	return nil
}

// loopOut is what the closed loop measured.
type loopOut struct {
	jobs    []*jobOut
	scrapes []map[string]int64 // /metrics of each complete round
	rounds  []time.Duration    // wall time of each complete round
}

// tracedRound is whether a round runs traced: in a traced run, every
// second round, so traced and untraced jobs see the same host.
func tracedRound(rc *runCtx, r int) bool { return rc.tr != nil && r%2 == 1 }

// closedLoop runs the job sequence round after round from one client
// that waits for each result before it submits the next job. Each
// round runs on a fresh artcd over an empty store, so every round sees
// the same artifact hit pattern. The client stops taking jobs once the
// deadline has passed and it has taken at least minJobs; a round it
// stops in counts toward neither the rounds nor the scrapes.
func closedLoop(rc *runCtx, want []expected, minJobs int) (*loopOut, error) {
	out := &loopOut{}
	dl := deadline(rc.cfg)
	taken := 0
	for r := 0; taken < minJobs || time.Now().Before(dl); r++ {
		var tr *tracer
		if tracedRound(rc, r) {
			tr = rc.tr
		}
		t0 := time.Now()
		a, _, err := startArtcd(rc.cfg.out)
		if err != nil {
			return nil, err
		}
		full := true
		for _, js := range rc.in.roundJobs(r) {
			if taken >= minJobs && time.Now().After(dl) {
				full = false
				break
			}
			taken++
			rc.attempted++
			j, err := a.job(tr, rc.op(), "client", rc.in.traces[js.trace], js.kind, 0)
			if err == nil {
				err = want[js.trace].check(j)
				// Only the size outlives the check: retained bodies
				// would grow the process with every round run.
				j.bytes, j.body = len(j.body), nil
			}
			if err != nil {
				rc.fail(err)
			}
			// A job whose result drifted still timed a full job.
			if j != nil {
				j.round = r
				out.jobs = append(out.jobs, j)
			}
		}
		sc, err := a.scrape()
		if err = errors.Join(err, a.stop()); err != nil {
			return nil, err
		}
		if full {
			out.rounds = append(out.rounds, time.Since(t0))
			out.scrapes = append(out.scrapes, sc)
		}
	}
	return out, nil
}

// jobsPerS is the loop's completion rate as a median over complete
// rounds, so a slow patch of the host moves it no more than it moves a
// median latency. A round's wall time runs from its service's start to
// its stop, so it holds every job of the round and nothing else.
func (o *loopOut) jobsPerS(perRound int) float64 {
	var rates []float64
	for _, d := range o.rounds {
		rates = append(rates, float64(perRound)/d.Seconds())
	}
	return median(rates)
}

// tenantSetup is what a tenant waits for before its first job can be
// submitted: an artcd start on a fresh, empty store until /healthz
// answers, then the upload of every corpus trace and snapshot. A start
// alone takes under a millisecond, too little to time steadily on a
// shared host.
func tenantSetup(rc *runCtx) (time.Duration, error) {
	a, d, err := startArtcd(rc.cfg.out)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	for _, in := range rc.in.traces {
		if _, err = a.upload("setup", in.raw); err == nil && in.snap != nil {
			_, err = a.upload("setup", in.snap)
		}
		if err != nil {
			break
		}
	}
	d += time.Since(t0)
	return d, errors.Join(err, a.stop())
}

// runArtcd measures magritte-artcd: the Table 3 corpus submitted to an
// in-process artcd by a closed loop of one client, one fresh service
// per round so every round sees the same artifact hit pattern.
func runArtcd(rc *runCtx) error {
	target, err := stack.ParseTarget(targetName, 0, 0)
	if err != nil {
		return err
	}
	jobs := rc.in.roundJobs(0)
	exportJobs := 0
	for _, j := range jobs {
		if j.kind == "export" {
			exportJobs++
		}
	}
	want, corpus, actionsPerS, err := reference(rc, target)
	if err != nil {
		return err
	}
	rc.stamp["traces"] = len(rc.in.traces)
	rc.stamp["round_jobs"] = len(jobs)
	rc.stamp["repeat_share"] = repeatShare(jobs)
	rc.stamp["export_share"] = float64(exportJobs) / float64(len(jobs))
	rc.stamp["clients"] = 1
	rc.stamp["parsed_records"] = corpus.records
	rc.stamp["actions"] = corpus.actions
	rc.stamp["resident_pages"] = corpus.counters.resident
	rc.stamp["components"] = corpus.components

	// Set-up, repeated on a fresh service each time after one unmeasured
	// round that pays the process's one-time costs.
	const warmups, setups = 1, 10
	runtime.GC()
	var setup []float64
	for i := 0; i < warmups+setups; i++ {
		d, err := tenantSetup(rc)
		if err != nil {
			return err
		}
		if i >= warmups {
			setup = append(setup, d.Seconds())
		}
	}

	// Whatever the deadline, two full rounds: enough for the per-round
	// rate, and for one traced round. An untraced run also completes the
	// jobs its tail percentile needs.
	minJobs := 2 * len(jobs)
	if rc.tr == nil {
		minJobs = max(minJobs, minTailJobs)
	}
	var loop *loopOut
	cpu := &cpuMeter{}
	cpu.measure(func() { loop, err = closedLoop(rc, want, minJobs) })
	if err != nil {
		return err
	}
	rc.stamp["rounds"] = float64(len(loop.jobs)) / float64(len(jobs))

	var plain, traced []*jobOut
	for _, j := range loop.jobs {
		if tracedRound(rc, j.round) {
			traced = append(traced, j)
		} else {
			plain = append(plain, j)
		}
	}
	latencies := func(js []*jobOut) (lat, rep []float64) {
		for _, j := range js {
			lat = append(lat, j.latency.Seconds())
			rep = append(rep, j.report.Seconds())
		}
		return lat, rep
	}
	lat, rep := latencies(plain)
	if rc.tr == nil {
		pct := tailPercentile(rc.cfg.workload)
		rc.stamp["tail_percentile"] = pct
		rc.stamp["samples"] = len(lat)
		m := rc.metrics
		m["report_s"] = median(rep)
		m["setup_s"] = median(setup)
		m["job_p50_s"] = median(lat)
		m["job_tail_s"] = quantile(lat, pct)
		m["actions_per_s"] = actionsPerS
		m["jobs_per_s"] = loop.jobsPerS(len(jobs))
		m["peak_rss_mb"] = peakRSSMB()
		return nil
	}

	m := rc.metrics
	tlat, _ := latencies(traced)
	m["trace_overhead_ratio"] = median(tlat) / median(lat)
	m["par.cpu_utilization"] = cpu.utilization()
	serviceLayers(rc, loop.jobs, loop.scrapes)
	corpusLayers(rc, corpus)
	return nil
}

// corpusLayers derives the per-layer metrics of magritte-artcd from the
// traced in-process corpus pass and its probes: layer times are per
// corpus pass, summed over its traces.
func corpusLayers(rc *runCtx, corpus *passOut) {
	m := rc.metrics
	m["trace.parse_allocs_per_record"] = float64(corpus.parse.mallocs) / float64(corpus.records)
	m["artc.compile_allocs_per_record"] = float64(corpus.compile.mallocs) / float64(corpus.records)
	m["artc.replay_allocs_per_action"] = float64(corpus.replay.mallocs) / float64(corpus.actions)
	m["artc.replay_bytes_per_action"] = float64(corpus.replay.bytes) / float64(corpus.actions)
	m["go.gc_cycles"] = float64(corpus.gcs)
	m["go.gc_pause_s"] = corpus.pause.Seconds()
	corpus.counters.put(m)
	m["shard.largest_share"] /= float64(corpus.actions)

	spans := rc.tr.closed()
	sumOf := func(name string) float64 {
		t := 0.0
		for _, x := range layerTimes(spans, name, nil) {
			t += x
		}
		return t
	}
	for metric, name := range layerSpans {
		m[metric] = sumOf(name)
	}
	m["trace.parse_mb_per_s"] = float64(straceBytes(rc.in)) / 1e6 / m["trace.parse_s"]
	m["bench.self_s"] = median(layerTimes(spans, "job", selfTimes(spans)))
}
