package artc

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"rootreplay/internal/core"
	"rootreplay/internal/fault"
	"rootreplay/internal/obs"
	"rootreplay/internal/par"
	"rootreplay/internal/shard"
	"rootreplay/internal/sim"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
)

// ShardOptions configure a sharded replay. Unlike Replay, ReplaySharded
// owns system construction: every component replays on its own
// kernel/scheduler/storage replica, so the caller describes the target
// once and the replayer instantiates it per component.
type ShardOptions struct {
	// Shards bounds the number of components replayed concurrently (the
	// host worker pool). Zero selects GOMAXPROCS. It does not affect
	// replay output: partitioning is a property of the graph, and every
	// component advances its own virtual clock regardless of how many
	// host workers drive them.
	Shards int
	// Target is the system configuration each component replica is built
	// from (Faults is overridden per replica; see Fault).
	Target stack.Config
	// Init initializes one component's replica system — typically
	// artc.Init to restore the benchmark snapshot, plus any target
	// warm-up. It runs once per component, so it must be safe to call
	// concurrently against distinct systems.
	Init func(sys *stack.System) error
	// Fault, when non-nil, gives every component replica its own
	// injector built from this plan, so chaos replay stays
	// bit-reproducible: decision streams are keyed by global action
	// index and per-replica device state, independent of shard count.
	// Options.Fault must be nil for a sharded replay.
	Fault *fault.Plan
}

// ShardStats summarizes the partition a sharded replay executed.
type ShardStats struct {
	// Components is the number of replica-isolated partitions.
	Components int
	// Largest is the action count of the biggest component.
	Largest int
	// Shards is the resolved worker bound.
	Shards int
}

// subState is a replayState's view of its place in a sharded replay:
// the component it replays and the translation of its dense local
// action indices back to trace indices.
type subState struct {
	comp   int32
	global []int32
}

// compiledShard is one component's replay unit: a sub-benchmark whose
// records, actions, and touch plans are dense contiguous copies of the
// component's slice of the trace, plus the local dependency graph.
type compiledShard struct {
	comp    int32
	members []int32
	b       *Benchmark
	g       *core.Graph
	// rec is the per-component span/sample recorder (nil without obs);
	// rs is filled once the component's kernel has run.
	rec *obs.Recorder
	rs  *replayState
}

// buildShards materializes every component's replay unit.
func buildShards(b *Benchmark, g *core.Graph, plan *shard.Plan) []*compiledShard {
	n := plan.N
	nc := len(plan.Components)
	// localOf renumbers each action within its component.
	localOf := make([]int32, n)
	counters := make([]int32, nc)
	for i := 0; i < n; i++ {
		comp := plan.CompOf[i]
		localOf[i] = counters[comp]
		counters[comp]++
	}
	// One pass over the full edge list builds every component's local
	// edge list; the partition keeps both ends of every edge together.
	edgesOf := make([][]core.Edge, nc)
	for ei := range g.Edges {
		e := &g.Edges[ei]
		c := plan.CompOf[e.From]
		edgesOf[c] = append(edgesOf[c], core.Edge{
			From: int(localOf[e.From]), To: int(localOf[e.To]), Kind: e.Kind, Res: e.Res,
		})
	}
	shards := make([]*compiledShard, nc)
	for ci := range plan.Components {
		shards[ci] = buildOneShard(b, plan.Components[ci], int32(ci), edgesOf[ci])
	}
	return shards
}

func buildOneShard(b *Benchmark, members []int32, comp int32, edges []core.Edge) *compiledShard {
	m := len(members)
	// Contiguous local copies: the replay hot path walks records and
	// actions densely instead of striding through the whole trace.
	recs := make([]trace.Record, m)
	recPtrs := make([]*trace.Record, m)
	acts := make([]core.Action, m)
	for li, gidx := range members {
		recs[li] = *b.Trace.Records[gidx]
		recs[li].Seq = int64(li)
		recPtrs[li] = &recs[li]
		acts[li] = b.Analysis.Actions[gidx]
		acts[li].Rec = recPtrs[li]
	}
	var touches []actionTouches
	if b.touches != nil {
		touches = make([]actionTouches, m)
		for li, gidx := range members {
			touches[li] = b.touches[gidx]
		}
	}
	subTrace := &trace.Trace{Platform: b.Trace.Platform, Records: recPtrs}
	subB := &Benchmark{
		Platform: b.Platform,
		Modes:    b.Modes,
		Trace:    subTrace,
		Snapshot: b.Snapshot,
		Analysis: &core.Analysis{Trace: subTrace, Actions: acts},
		touches:  touches,
	}
	return &compiledShard{
		comp:    comp,
		members: members,
		b:       subB,
		g:       core.NewGraph(m, edges),
	}
}

// wholePlan is the one-component partition of n actions.
func wholePlan(n int) *shard.Plan {
	members := make([]int32, n)
	for i := range members {
		members[i] = int32(i)
	}
	return &shard.Plan{N: n, Components: [][]int32{members}, CompOf: make([]int32, n)}
}

// finishSub tears down one component's replay machinery without
// assembling a full report; the merge reads the raw state instead.
func (rs *replayState) finishSub() error {
	if rs.watchdog != nil {
		rs.watchdog.Stop()
		rs.watchdog = nil
	}
	if rs.obsDetach != nil {
		rs.obsDetach()
		rs.obsDetach = nil
	}
	if rs.stall != nil {
		return rs.stall
	}
	return nil
}

// runShard builds one component's replica system, replays the
// component on it, and leaves the raw state on cs for the merge.
func runShard(cs *compiledShard, opts Options, so ShardOptions) error {
	k := sim.NewKernel()
	conf := so.Target
	var inj *fault.Injector
	if so.Fault != nil {
		inj = fault.New(*so.Fault)
		conf.Faults = inj
	} else {
		conf.Faults = nil
	}
	sys := stack.New(k, conf)
	if so.Init != nil {
		if err := so.Init(sys); err != nil {
			return fmt.Errorf("artc: shard %d init: %w", cs.comp, err)
		}
	}
	opts2 := opts
	opts2.Fault = inj
	opts2.Obs = nil
	if opts.Obs != nil {
		cs.rec = obs.NewRecorder(len(cs.members), opts.Obs.SampleCap())
		opts2.Obs = cs.rec
	}
	rs := newReplayState(sys, cs.b, opts2, cs.g)
	rs.sub = &subState{comp: cs.comp, global: cs.members}
	rs.spawnThreads()
	runErr := k.Run()
	cs.rs = rs
	if ferr := rs.finishSub(); ferr != nil {
		return ferr
	}
	if runErr != nil {
		return fmt.Errorf("artc: shard %d replay stalled: %w", cs.comp, runErr)
	}
	return nil
}

// mergedSample keys one component's error sample for the merge.
type mergedSample struct {
	at   time.Duration
	comp int32
	text string
}

// ReplaySharded partitions the benchmark's dependency graph into
// replica-isolated components (internal/shard) and replays every
// component on its own kernel/scheduler/storage stack, each advancing
// its own virtual clock. No edge crosses components, so they never
// synchronize. Per-shard reports, spans, and counters are merged into
// one Report. For a trace the partitioner keeps whole (one component) —
// every temporal or program_seq replay, and every MethodSingle replay,
// whose one replay thread is a total order over the whole trace — the
// merged output is byte-identical to Replay on an identically
// configured system; the output never depends on Shards or GOMAXPROCS.
func ReplaySharded(b *Benchmark, opts Options, so ShardOptions) (*Report, *ShardStats, error) {
	if opts.Fault != nil {
		return nil, nil, fmt.Errorf("artc: sharded replay takes a fault plan in ShardOptions.Fault, not an injector in Options.Fault")
	}
	if opts.MaxErrorSamples == 0 {
		opts.MaxErrorSamples = 10
	}
	g, err := methodGraph(b, &opts)
	if err != nil {
		return nil, nil, err
	}
	var plan *shard.Plan
	if opts.Method == MethodSingle {
		plan = wholePlan(len(b.Analysis.Actions))
	} else {
		plan = shard.Partition(b.Analysis, g)
	}
	workers := so.Shards
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pst := plan.Stats()
	stats := &ShardStats{Components: pst.Components, Largest: pst.Largest, Shards: workers}
	shards := buildShards(b, g, plan)
	if err := par.ForEachN(len(shards), workers, func(ci int) error {
		return runShard(shards[ci], opts, so)
	}); err != nil {
		return nil, stats, err
	}
	rep, err := mergeReports(b, g, shards, opts)
	if err != nil {
		return nil, stats, err
	}
	return rep, stats, nil
}

// mergeReports folds the per-component raw states into one Report and,
// when observability is on, replays the merged span and sample streams
// into the caller's recorder. Per-component streams are interleaved by
// virtual time with component index as the tiebreak, preserving each
// component's internal order — for a single component this reproduces
// the serial streams exactly.
func mergeReports(b *Benchmark, g *core.Graph, shards []*compiledShard, opts Options) (*Report, error) {
	n := len(b.Trace.Records)
	rep := &Report{
		Method:    opts.Method,
		Actions:   n,
		IssueAt:   make([]time.Duration, n),
		DoneAt:    make([]time.Duration, n),
		CallTime:  make(map[string]time.Duration),
		CallCount: make(map[string]int64),
		PerThread: make(map[int]time.Duration),
		graph:     g,
	}
	var samples []mergedSample
	var fstats *fault.Stats
	for _, cs := range shards {
		rs := cs.rs
		if rs == nil {
			return nil, fmt.Errorf("artc: shard %d never ran", cs.comp)
		}
		for li, gidx := range cs.members {
			rep.IssueAt[gidx] = rs.issueAt[li]
			rep.DoneAt[gidx] = rs.doneAt[li]
		}
		rep.Errors += rs.rep.Errors
		rep.Emulated += rs.rep.Emulated
		rep.ThreadTime += rs.rep.ThreadTime
		for call, d := range rs.rep.CallTime {
			rep.CallTime[call] += d
		}
		for call, cnt := range rs.rep.CallCount {
			rep.CallCount[call] += cnt
		}
		for tid, d := range rs.rep.PerThread {
			rep.PerThread[tid] += d
		}
		for si, text := range rs.rep.ErrorSamples {
			samples = append(samples, mergedSample{at: rs.sampleAt[si], comp: cs.comp, text: text})
		}
		if rs.inj != nil {
			st := rs.inj.Stats()
			if fstats == nil {
				fstats = &fault.Stats{}
			}
			fstats.SyscallInjected += st.SyscallInjected
			fstats.Retries += st.Retries
			fstats.Recovered += st.Recovered
			fstats.Skipped += st.Skipped
			fstats.StorageErrors += st.StorageErrors
			fstats.StorageSlow += st.StorageSlow
		}
	}
	var last time.Duration
	for _, d := range rep.DoneAt {
		if d > last {
			last = d
		}
	}
	rep.Elapsed = last
	// Error samples keep the serial retention rule generalized: the
	// first MaxErrorSamples in merged completion order.
	sort.SliceStable(samples, func(i, j int) bool {
		if samples[i].at != samples[j].at {
			return samples[i].at < samples[j].at
		}
		return samples[i].comp < samples[j].comp
	})
	if max := opts.MaxErrorSamples; max >= 0 && len(samples) > max {
		samples = samples[:max]
	}
	for _, s := range samples {
		rep.ErrorSamples = append(rep.ErrorSamples, s.text)
	}
	rep.Graph = g.Stats(b.Analysis)
	rep.FaultStats = fstats

	if opts.Obs != nil {
		var spans []obs.Span
		for _, cs := range shards {
			spans = append(spans, cs.rec.Spans()...)
		}
		sort.SliceStable(spans, func(i, j int) bool {
			if spans[i].Done != spans[j].Done {
				return spans[i].Done < spans[j].Done
			}
			return spans[i].Shard < spans[j].Shard
		})
		for _, sp := range spans {
			opts.Obs.Record(sp)
		}
		type keyedSample struct {
			s    obs.Sample
			comp int32
		}
		var smps []keyedSample
		for _, cs := range shards {
			for _, s := range cs.rec.Samples() {
				smps = append(smps, keyedSample{s: s, comp: cs.comp})
			}
		}
		sort.SliceStable(smps, func(i, j int) bool {
			if smps[i].s.At != smps[j].s.At {
				return smps[i].s.At < smps[j].s.At
			}
			return smps[i].comp < smps[j].comp
		})
		for _, ks := range smps {
			opts.Obs.Sample(ks.s.At, ks.s.Kind, ks.s.Value)
		}
	}

	if opts.SelfCheck {
		// Merged issue/done times must satisfy every edge of the full
		// graph, in trace indices.
		if err := g.ValidateOrder(rep.IssueAt, rep.DoneAt); err != nil {
			return nil, fmt.Errorf("artc: sharded self-check failed: %w", err)
		}
	}
	return rep, nil
}
