package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"rootreplay/internal/artc"
	"rootreplay/internal/artifact"
	"rootreplay/internal/core"
	"rootreplay/internal/obs"
	"rootreplay/internal/shard"
	"rootreplay/internal/sim"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
	"rootreplay/internal/vfs"
)

// targetName is the simulated machine every workload replays on: the
// default of `artc trace` and of artcd jobs.
const targetName = "linux-ext4-ssd-noop"

// counters are the virtual, deterministic layer counts of one replay,
// summed over its replicas.
type counters struct {
	hits, misses, writebacks, evictions, resident int64
	fsyncs, reads, writes, blocksWritten          int64
	scanBound                                     int64
	busy, elapsed                                 time.Duration
	concurrency                                   float64
}

func (c *counters) add(systems []*stack.System, rep *artc.Report) {
	for _, sys := range systems {
		cs := sys.Cache.Stats()
		c.hits += cs.Hits
		c.misses += cs.Misses
		c.writebacks += cs.Writebacks
		c.evictions += cs.Evictions
		c.resident += sys.Cache.Resident()
		// Each fsync walks at most its own machine's resident pages.
		c.scanBound += sys.Stats().CallCount["fsync"] * sys.Cache.Resident()
		ds := sys.Dev.Stats()
		c.reads += ds.Reads
		c.writes += ds.Writes
		c.blocksWritten += ds.BlocksWrite
		c.busy += ds.BusyTime
	}
	c.fsyncs += rep.CallCount["fsync"]
	c.elapsed += rep.Elapsed
	c.concurrency += rep.Concurrency()
}

func (c *counters) put(m metricSet) {
	m["cache.hits"] = float64(c.hits)
	m["cache.misses"] = float64(c.misses)
	m["cache.hit_ratio"] = ratio(float64(c.hits), float64(c.hits+c.misses))
	m["cache.writebacks"] = float64(c.writebacks)
	m["cache.evictions"] = float64(c.evictions)
	m["cache.resident_pages"] = float64(c.resident)
	m["stack.fsync_calls"] = float64(c.fsyncs)
	m["cache.sync_scan_bound"] = float64(c.scanBound)
	m["storage.reads"] = float64(c.reads)
	m["storage.writes"] = float64(c.writes)
	m["storage.blocks_written"] = float64(c.blocksWritten)
	m["storage.busy_virtual_s"] = c.busy.Seconds()
	m["sim.virtual_s"] = c.elapsed.Seconds()
	m["artc.concurrency"] = c.concurrency
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// passOut is what one trace pass leaves for the metrics.
type passOut struct {
	total, setup, replayCall time.Duration
	actions, records         int
	components               int // magritte-artcd corpus only
	parse, compile, replay   memDelta
	gcs                      uint32
	pause                    time.Duration
	counters                 counters
	// rep, b and systems are kept only when the caller asks.
	rep     *artc.Report
	b       *artc.Benchmark
	systems []*stack.System
}

// passSetup is the shared state a pass needs besides its input.
type passSetup struct {
	target  stack.Config
	sharded bool
	// init restores the benchmark's initial state on a machine, as the
	// CLI or artcd does for this kind of trace.
	init func(*stack.System, *artc.Benchmark) error
	// check names the digest each pass's report must match ("" skips it).
	check string
	cpu   *cpuMeter
}

// tracePass is one user-visible pass: strace bytes in memory →
// parse → compile → init → replay (serial artc.Replay, or
// artc.ReplaySharded without slicing) → report.
func tracePass(rc *runCtx, ps passSetup, in input, tr *tracer, keep bool) (*passOut, error) {
	op := rc.op()
	var mm *memMeter
	if tr != nil {
		mm = &memMeter{}
	}
	snap, err := decodeSnapshot(in.snap)
	if err != nil {
		return nil, err
	}
	out := &passOut{}
	mm.mark()
	t0 := time.Now()
	root := tr.begin("pass", 0, op)
	defer tr.end(root)

	sp := tr.begin("trace.parse", root, op)
	parsed, err := trace.ParseStrace(bytes.NewReader(in.raw))
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: parse: %w", in.name, err)
	}
	out.records = len(parsed.Records)
	out.parse = mm.since()

	sp = tr.begin("artc.compile", root, op)
	b, err := artc.Compile(parsed, snap, core.DefaultModes())
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", in.name, err)
	}
	out.compile = mm.since()

	var rep *artc.Report
	var systems []*stack.System
	var init memDelta
	if ps.sharded {
		var mu sync.Mutex
		var firstInit time.Time
		sp = tr.begin("artc.replay_sharded", root, op)
		r0 := time.Now()
		replay := func() {
			rep, _, err = artc.ReplaySharded(b, artc.Options{}, artc.ShardOptions{
				Shards: runtime.GOMAXPROCS(0),
				Target: ps.target,
				Init: func(sys *stack.System) error {
					isp := tr.begin("artc.init", sp, op)
					err := ps.init(sys, b)
					tr.end(isp)
					now := time.Now()
					mu.Lock()
					if firstInit.IsZero() || now.Before(firstInit) {
						firstInit = now
					}
					systems = append(systems, sys)
					mu.Unlock()
					return err
				},
			})
		}
		if ps.cpu != nil {
			ps.cpu.measure(replay)
		} else {
			replay()
		}
		out.replayCall = time.Since(r0)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: sharded replay: %w", in.name, err)
		}
		out.setup = firstInit.Sub(t0)
		out.replay = mm.since()
	} else {
		sp = tr.begin("artc.init", root, op)
		sys := stack.New(sim.NewKernel(), ps.target)
		err = ps.init(sys, b)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: init: %w", in.name, err)
		}
		out.setup = time.Since(t0)
		init = mm.since()
		sp = tr.begin("artc.replay", root, op)
		r0 := time.Now()
		rep, err = artc.Replay(sys, b, artc.Options{})
		out.replayCall = time.Since(r0)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: replay: %w", in.name, err)
		}
		out.replay = mm.since()
		systems = []*stack.System{sys}
	}
	out.total = time.Since(t0)
	out.actions = rep.Actions
	for _, d := range []memDelta{out.parse, out.compile, init, out.replay} {
		out.gcs += d.gcs
		out.pause += d.pause
	}
	out.counters.add(systems, rep)
	if keep {
		out.rep, out.b, out.systems = rep, b, systems
	}
	if ps.check == "" {
		return out, nil
	}
	// A drifted report still timed a full pass: the caller counts the
	// failure and keeps the timing.
	return out, checkReport(rc, ps.check, rep)
}

// checkReport compares a report's digest with the recorded one and
// with earlier reports of the same name in this run.
func checkReport(rc *runCtx, name string, rep *artc.Report) error {
	data, err := reportBytes(rep)
	if err != nil {
		return err
	}
	return rc.dig.check(name, rc.dig.sum(data))
}

// runPasses measures fsync-pipeline and components-sharded: a closed
// loop of one client repeating the trace pass until the time is up.
func runPasses(rc *runCtx) error {
	target, err := stack.ParseTarget(targetName, 0, 0)
	if err != nil {
		return err
	}
	in := rc.in.traces[0]
	ps := passSetup{
		target: target, sharded: rc.cfg.workload == "components-sharded",
		init:  func(sys *stack.System, b *artc.Benchmark) error { return artc.Init(sys, b, "") },
		check: "report",
	}

	// The warm-up pass is not timed: it fills the allocator and code
	// caches, and its report is the reference later passes must match.
	var warm *passOut
	rc.attempt(func() error {
		warm, err = tracePass(rc, ps, in, nil, true)
		return err
	})
	if warm == nil {
		return errors.New("warm-up pass failed")
	}
	pst := shard.Partition(warm.b.Analysis, warm.b.Graph).Stats()
	rc.stamp["parsed_records"] = warm.records
	rc.stamp["components"] = pst.Components
	rc.stamp["resident_pages"] = warm.counters.resident
	rc.stamp["actions"] = warm.actions
	if rc.tr == nil {
		// Only the traced probes reuse the warm-up's compile, report and
		// machines; held through an untraced loop they would count in
		// peak_rss_mb on top of the program's own memory.
		warm.b, warm.rep, warm.systems = nil, nil, nil
		runtime.GC()
	}

	// The measured loop. A traced run alternates untraced and traced
	// passes, so both see the same host conditions and their ratio is
	// the tracing overhead.
	var plain, traced []*passOut
	cpu := &cpuMeter{}
	dl := deadline(rc.cfg)
	// At least one operation of each kind, whatever the deadline.
	minOps := 1
	if rc.tr != nil {
		minOps = 2
	}
	for i := 0; i < minOps || time.Now().Before(dl); i++ {
		var tr *tracer
		if rc.tr != nil && i%2 == 1 {
			tr = rc.tr
		}
		ps.cpu = nil
		if tr != nil && ps.sharded {
			ps.cpu = cpu
		}
		// Each pass starts from a collected heap, as the CLI's one pass
		// in a fresh process does, so no pass inherits the collector's
		// timing from the pass before it.
		runtime.GC()
		var p *passOut
		rc.attempt(func() error {
			p, err = tracePass(rc, ps, in, tr, false)
			return err
		})
		if p == nil {
			continue
		}
		if tr != nil {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}
	rc.stamp["passes"] = len(plain) + len(traced)
	if len(plain) == 0 || rc.tr != nil && len(traced) == 0 {
		return errors.New("no pass completed")
	}

	if rc.tr == nil {
		totals := make([]float64, len(plain))
		setups := make([]float64, len(plain))
		rates := make([]float64, len(plain))
		for i, p := range plain {
			totals[i] = p.total.Seconds()
			setups[i] = p.setup.Seconds()
			rates[i] = float64(p.actions) / p.replayCall.Seconds()
		}
		pct := tailPercentile(rc.cfg.workload)
		rc.stamp["tail_percentile"] = pct
		rc.stamp["samples"] = len(totals)
		m := rc.metrics
		m["report_s"] = median(totals)
		m["setup_s"] = median(setups)
		m["actions_per_s"] = median(rates)
		m["job_p50_s"] = median(totals)
		m["job_tail_s"] = quantile(totals, pct)
		// One client: passes per second is the inverse of the pass time.
		m["jobs_per_s"] = 1 / median(totals)
		m["peak_rss_mb"] = peakRSSMB()
		return nil
	}
	return passLayers(rc, ps, warm, plain, traced, cpu)
}

// passLayers derives the per-layer metrics of a traced pass run, then
// probes the layers the pass does not call.
func passLayers(rc *runCtx, ps passSetup, warm *passOut, plain, traced []*passOut, cpu *cpuMeter) error {
	m := rc.metrics
	raw := rc.in.traces[0].raw
	medianOf := func(ps []*passOut, f func(p *passOut) float64) float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = f(p)
		}
		return median(xs)
	}
	perPass := func(f func(p *passOut) float64) float64 { return medianOf(traced, f) }
	total := func(p *passOut) float64 { return p.total.Seconds() }
	m["trace.parse_allocs_per_record"] = perPass(func(p *passOut) float64 { return float64(p.parse.mallocs) / float64(p.records) })
	m["artc.compile_allocs_per_record"] = perPass(func(p *passOut) float64 { return float64(p.compile.mallocs) / float64(p.records) })
	m["artc.replay_allocs_per_action"] = perPass(func(p *passOut) float64 { return float64(p.replay.mallocs) / float64(p.actions) })
	m["artc.replay_bytes_per_action"] = perPass(func(p *passOut) float64 { return float64(p.replay.bytes) / float64(p.actions) })
	m["go.gc_cycles"] = perPass(func(p *passOut) float64 { return float64(p.gcs) })
	m["go.gc_pause_s"] = perPass(func(p *passOut) float64 { return p.pause.Seconds() })
	m["trace_overhead_ratio"] = perPass(total) / medianOf(plain, total)
	traced[len(traced)-1].counters.put(m)
	m["core.edges_enforced"] = float64(len(warm.b.Graph.Edges))
	m["core.edges_reduced"] = float64(warm.b.Graph.ReducedEdges)
	rc.attempt(func() error {
		pst, err := probeCompile(rc, raw, nil)
		m["shard.components"] = float64(pst.Components)
		m["shard.largest_share"] = float64(pst.Largest) / float64(warm.actions)
		return err
	})
	rc.attempt(func() error { return probeArtifact(rc, raw, nil, warm.b) })

	// The replay path the workload does not measure, timed once: the
	// sharded replayer on fsync-pipeline, whose report must equal the
	// serial one byte for byte at the benchmark's size (one component);
	// serial artc.Replay on components-sharded, whose per-replica caches
	// make the sharded report differ from it by design.
	op := rc.op()
	rc.attempt(func() error {
		if ps.sharded {
			sp := rc.tr.begin("artc.replay", 0, op)
			sys := stack.New(sim.NewKernel(), ps.target)
			if err := ps.init(sys, warm.b); err != nil {
				return err
			}
			rep, err := artc.Replay(sys, warm.b, artc.Options{})
			rc.tr.end(sp)
			if err != nil {
				return fmt.Errorf("serial replay: %w", err)
			}
			return checkReport(rc, "serial_report", rep)
		}
		sp := rc.tr.begin("artc.replay_sharded", 0, op)
		var rep *artc.Report
		var err error
		cpu.measure(func() {
			rep, _, err = artc.ReplaySharded(warm.b, artc.Options{}, artc.ShardOptions{
				Shards: runtime.GOMAXPROCS(0), Target: ps.target,
				Init: func(sys *stack.System) error { return ps.init(sys, warm.b) },
			})
		})
		rc.tr.end(sp)
		if err != nil {
			return fmt.Errorf("sharded replay: %w", err)
		}
		// Byte identity with serial holds for one component only; tiny
		// pipelines split into one component per stage.
		name := "sharded_report"
		if rc.stamp["components"] == 1 {
			name = "report"
		}
		return checkReport(rc, name, rep)
	})
	m["par.cpu_utilization"] = cpu.utilization()

	rc.attempt(func() error { return probeService(rc, ps, raw, warm) })

	spans := rc.tr.closed()
	self := selfTimes(spans)
	for metric, name := range layerSpans {
		m[metric] = median(layerTimes(spans, name, nil))
	}
	m["trace.parse_mb_per_s"] = float64(len(raw)) / 1e6 / m["trace.parse_s"]
	m["bench.self_s"] = median(layerTimes(spans, "pass", self))
	return nil
}

// probeCompile times the compiler's phases one by one, the way
// artc.Compile runs them: snapshot inference and restore, resource
// analysis, graph build, transitive reduction. Then it times the
// component partitioner on the result.
func probeCompile(rc *runCtx, raw, snapRaw []byte) (shard.Stats, error) {
	op := rc.op()
	tr := rc.tr
	parsed, err := trace.ParseStrace(bytes.NewReader(raw))
	if err != nil {
		return shard.Stats{}, fmt.Errorf("parse: %w", err)
	}
	parsed.Renumber()
	snap, err := decodeSnapshot(snapRaw)
	if err != nil {
		return shard.Stats{}, err
	}
	if snap == nil {
		snap = artc.InferSnapshot(parsed)
	}
	fs := vfs.New()
	if err := snapshot.RestoreTree(fs, "", snap); err != nil {
		return shard.Stats{}, fmt.Errorf("restore: %w", err)
	}
	sp := tr.begin("core.analyze", 0, op)
	an, err := core.Analyze(parsed, fs)
	tr.end(sp)
	if err != nil {
		return shard.Stats{}, fmt.Errorf("analyze: %w", err)
	}
	sp = tr.begin("core.build_graph", 0, op)
	g := core.BuildGraph(an, core.DefaultModes())
	tr.end(sp)
	if err := g.CheckAcyclic(); err != nil {
		return shard.Stats{}, err
	}
	sp = tr.begin("core.reduce", 0, op)
	g = g.Reduce(an)
	tr.end(sp)
	sp = tr.begin("shard.partition", 0, op)
	plan := shard.Partition(an, g)
	tr.end(sp)
	return plan.Stats(), nil
}

// probeArtifact stores a compiled benchmark in a fresh artifact store
// and loads it back, timing both; the loaded benchmark must replay to
// the same report as the compiled one (checked by the callers' digest
// names, through artcd's cache hits).
func probeArtifact(rc *runCtx, raw, snapRaw []byte, b *artc.Benchmark) error {
	op := rc.op()
	dir, err := os.MkdirTemp(rc.cfg.out, "artifact-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := artifact.Open(dir, 0)
	if err != nil {
		return err
	}
	snap, err := decodeSnapshot(snapRaw)
	if err != nil {
		return err
	}
	key := artifact.Key(raw, snap, "linux", core.DefaultModes())
	sp := rc.tr.begin("artifact.put", 0, op)
	n, err := store.Put(key, b)
	rc.tr.end(sp)
	if err != nil {
		return fmt.Errorf("artifact put: %w", err)
	}
	sp = rc.tr.begin("artifact.get", 0, op)
	got, _, err := store.Get(key)
	rc.tr.end(sp)
	if err != nil {
		return fmt.Errorf("artifact get: %w", err)
	}
	if len(got.Trace.Records) != len(b.Trace.Records) {
		return fmt.Errorf("artifact get: %d records, stored %d", len(got.Trace.Records), len(b.Trace.Records))
	}
	rc.metrics["artifact.bytes"] += float64(n)
	return nil
}

// probeService sends the pass's trace through an in-process artcd once
// as a replay job and once as an export job. The replay result must
// equal the warm-up report; the export must equal the in-process
// Perfetto export of the same replay byte for byte.
func probeService(rc *runCtx, ps passSetup, raw []byte, warm *passOut) (err error) {
	a, _, err := startArtcd(rc.cfg.out)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, a.stop()) }()
	shards := 0
	if ps.sharded {
		shards = runtime.GOMAXPROCS(0)
	}
	doc, err := docSum(replayDocOf(warm.rep), rc.dig)
	if err != nil {
		return err
	}
	export, err := exportSum(rc, ps, warm.b)
	if err != nil {
		return fmt.Errorf("export replay: %w", err)
	}
	want := expected{replay: doc, export: export}
	var outs []*jobOut
	for _, kind := range []string{"replay", "export"} {
		j, err := a.job(rc.tr, rc.op(), "probe", input{raw: raw}, kind, shards)
		if err != nil {
			return err
		}
		if err := want.check(j); err != nil {
			return err
		}
		j.bytes = len(j.body)
		outs = append(outs, j)
	}
	sc, err := a.scrape()
	if err != nil {
		return err
	}
	serviceLayers(rc, outs, []map[string]int64{sc})
	return nil
}

// exportSum is the digest of the Perfetto export artcd's export job
// produces for b: the replay through an obs recorder, as `artc trace`
// (sharded as the pass is).
func exportSum(rc *runCtx, ps passSetup, b *artc.Benchmark) (string, error) {
	rec := obs.NewRecorder(0, 0)
	opts := artc.Options{Obs: rec}
	var err error
	if ps.sharded {
		_, _, err = artc.ReplaySharded(b, opts, artc.ShardOptions{
			Shards: runtime.GOMAXPROCS(0), Target: ps.target,
			Init: func(sys *stack.System) error { return ps.init(sys, b) },
		})
	} else {
		sys := stack.New(sim.NewKernel(), ps.target)
		if err = ps.init(sys, b); err == nil {
			_, err = artc.Replay(sys, b, opts)
		}
	}
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		return "", err
	}
	return rc.dig.sum(buf.Bytes()), nil
}
