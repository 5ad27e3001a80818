package artc

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"rootreplay/internal/core"
	"rootreplay/internal/fault"
	"rootreplay/internal/obs"
	"rootreplay/internal/sim"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
)

// genGroups traces nComp groups of opsPer random file operations. Each
// group runs on its own thread against its own directory, so shared=false
// partitions into nComp components; with shared=true every thread works
// in one directory and the resource closure keeps the trace whole.
func genGroups(t *testing.T, nComp, opsPer int, shared bool) (*trace.Trace, *snapshot.Snapshot) {
	t.Helper()
	k := sim.NewKernel()
	sys := stack.New(k, defaultConf())
	dirs := nComp
	if shared {
		dirs = 1
	}
	for c := 0; c < dirs; c++ {
		if err := sys.SetupMkdirAll(fmt.Sprintf("/comp%d/sub", c)); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 3; f++ {
			if err := sys.SetupCreate(fmt.Sprintf("/comp%d/f%d", c, f), 1<<16); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap := snapshot.Capture(sys)
	tr := &trace.Trace{Platform: string(stack.Linux)}
	sys.SetTracer(func(r *trace.Record) { tr.Records = append(tr.Records, r) })
	for c := 0; c < nComp; c++ {
		c := c
		rng := rand.New(rand.NewSource(int64(c)*104729 + 1))
		k.Spawn(fmt.Sprintf("grp-%d", c), func(th *sim.Thread) {
			dir := fmt.Sprintf("/comp%d", c)
			if shared {
				dir = "/comp0"
			}
			for i := 0; i < opsPer; i++ {
				switch rng.Intn(5) {
				case 0:
					fd, errno := sys.Open(th, fmt.Sprintf("%s/f%d", dir, rng.Intn(3)), trace.ORdonly, 0)
					if errno == 0 {
						sys.Pread(th, fd, 4096, int64(rng.Intn(8))*4096)
						sys.Close(th, fd)
					}
				case 1:
					p := fmt.Sprintf("%s/sub/new%d-%d", dir, c, i)
					fd, errno := sys.Open(th, p, trace.OWronly|trace.OCreat, 0o644)
					if errno == 0 {
						sys.Write(th, fd, 1024)
						sys.Close(th, fd)
					}
				case 2:
					sys.Stat(th, fmt.Sprintf("%s/f%d", dir, rng.Intn(3)))
				case 3:
					sys.Stat(th, fmt.Sprintf("%s/missing%d", dir, rng.Intn(2)))
				case 4:
					fd, errno := sys.Open(th, fmt.Sprintf("%s/f0", dir), trace.ORdwr, 0)
					if errno == 0 {
						sys.Pwrite(th, fd, 2048, int64(rng.Intn(4))*4096)
						sys.Fsync(th, fd)
						sys.Close(th, fd)
					}
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	tr.Renumber()
	return tr, snap
}

// shardedOn compiles and replays the trace through ReplaySharded with
// the standard test target; the returned stats describe the partition.
func shardedOn(t *testing.T, tr *trace.Trace, snap *snapshot.Snapshot, opts Options, shards int, plan *fault.Plan) (*Report, *ShardStats) {
	t.Helper()
	rep, st, err := shardedOnErr(t, tr, snap, opts, shards, plan)
	if err != nil {
		t.Fatal(err)
	}
	return rep, st
}

func shardedOnErr(t *testing.T, tr *trace.Trace, snap *snapshot.Snapshot, opts Options, shards int, plan *fault.Plan) (*Report, *ShardStats, error) {
	t.Helper()
	b, err := Compile(tr, snap, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	opts.SelfCheck = true
	so := ShardOptions{
		Shards: shards,
		Target: defaultConf(),
		Init:   func(sys *stack.System) error { return Init(sys, b, opts.Prefix) },
		Fault:  plan,
	}
	return ReplaySharded(b, opts, so)
}

// reportJSON renders a report for byte-level comparison; every exported
// field participates.
func reportJSON(t *testing.T, rep *Report) string {
	t.Helper()
	buf, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// A trace the partitioner keeps whole must replay byte-identically to
// the serial replayer, spans and counter samples included, under every
// method.
func TestShardedSingleComponentByteIdentical(t *testing.T) {
	tr, snap := genGroups(t, 3, 40, true) // 3 threads, one shared directory
	for _, m := range []Method{MethodARTC, MethodTemporal, MethodSingle, MethodUnconstrained} {
		serialRec := obs.NewRecorder(0, 0)
		serial := replayOn(t, tr, snap, defaultConf(), Options{Method: m, Obs: serialRec})

		shardRec := obs.NewRecorder(0, 0)
		rep, st := shardedOn(t, tr, snap, Options{Method: m, Obs: shardRec}, 0, nil)
		if st.Components != 1 {
			t.Fatalf("%s: shared-directory trace split: %+v", m, st)
		}
		if got, want := reportJSON(t, rep), reportJSON(t, serial); got != want {
			t.Errorf("%s: sharded report differs from serial:\n got %s\nwant %s", m, got, want)
		}
		if !reflect.DeepEqual(shardRec.Spans(), serialRec.Spans()) {
			t.Errorf("%s: sharded spans differ from serial", m)
		}
		if !reflect.DeepEqual(shardRec.Samples(), serialRec.Samples()) {
			t.Errorf("%s: sharded samples differ from serial", m)
		}
	}
}

// Isolated components must replay identically whatever the worker
// bound, and agree with the serial replayer on everything that does not
// depend on device sharing (the serial run multiplexes all components
// over one device, so only virtual-time placement may differ).
func TestShardedIsolatedDeterministicAcrossShardCounts(t *testing.T) {
	const nComp = 5
	tr, snap := genGroups(t, nComp, 60, false)
	serial := replayOn(t, tr, snap, defaultConf(), Options{})

	var base string
	for _, shards := range []int{1, 2, 4, 8} {
		rep, st := shardedOn(t, tr, snap, Options{}, shards, nil)
		if st.Components != nComp {
			t.Fatalf("shards=%d: unexpected partition %+v", shards, st)
		}
		if st.Shards != shards {
			t.Fatalf("stats recorded %d shards, want %d", st.Shards, shards)
		}
		js := reportJSON(t, rep)
		if base == "" {
			base = js
		} else if js != base {
			t.Fatalf("shards=%d: report differs from shards=1", shards)
		}
		if rep.Errors != serial.Errors || rep.Emulated != serial.Emulated || rep.Actions != serial.Actions {
			t.Errorf("shards=%d: semantics diverged from serial: errors %d/%d emulated %d/%d",
				shards, rep.Errors, serial.Errors, rep.Emulated, serial.Emulated)
		}
		if !reflect.DeepEqual(rep.CallCount, serial.CallCount) {
			t.Errorf("shards=%d: call counts diverged from serial", shards)
		}
	}
}

// A dependency chain over otherwise isolated groups — program order,
// temporal adjacency, or the single method's one replay thread — joins
// them into one component, which replays on one kernel exactly as the
// serial replayer does: report, spans, and counter samples are
// byte-identical at every worker bound.
func TestShardedChainedGroupsMatchSerial(t *testing.T) {
	tr, snap := genGroups(t, 4, 40, false)
	progSeq := core.ModeSet{ProgramSeq: true}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"program_seq", Options{Modes: &progSeq}},
		{"temporal", Options{Method: MethodTemporal}},
		{"single", Options{Method: MethodSingle}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serialRec := obs.NewRecorder(0, 0)
			opts := tc.opts
			opts.Obs = serialRec
			serial := replayOn(t, tr, snap, defaultConf(), opts)
			want := reportJSON(t, serial)
			for _, shards := range []int{1, 2, 8} {
				shardRec := obs.NewRecorder(0, 0)
				opts.Obs = shardRec
				rep, st := shardedOn(t, tr, snap, opts, shards, nil)
				if st.Components != 1 {
					t.Fatalf("shards=%d: chained groups split into %d components", shards, st.Components)
				}
				if got := reportJSON(t, rep); got != want {
					t.Fatalf("shards=%d: sharded report differs from serial:\n got %s\nwant %s", shards, got, want)
				}
				if !reflect.DeepEqual(shardRec.Spans(), serialRec.Spans()) {
					t.Fatalf("shards=%d: sharded spans differ from serial", shards)
				}
				if !reflect.DeepEqual(shardRec.Samples(), serialRec.Samples()) {
					t.Fatalf("shards=%d: sharded samples differ from serial", shards)
				}
			}
		})
	}
}

// Fault injection on a single-component trace must be byte-identical to
// the serial chaos replayer: decisions are keyed by global action index,
// so the same plan hits the same actions.
func TestShardedFaultSingleComponentMatchesSerial(t *testing.T) {
	tr, snap := genGroups(t, 2, 40, true)
	plan := fault.Plan{
		Seed:    77,
		Syscall: fault.SyscallPlan{Rate: 0.3},
		Retry:   fault.RetryPlan{MaxAttempts: 3},
	}
	serial, err := replayWithInjector(t, tr, snap, fault.New(plan), Options{SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, st := shardedOn(t, tr, snap, Options{}, 0, &plan)
	if st.Components != 1 {
		t.Fatalf("shared trace split: %+v", st)
	}
	if got, want := reportJSON(t, rep), reportJSON(t, serial); got != want {
		t.Errorf("sharded chaos report differs from serial:\n got %s\nwant %s", got, want)
	}
	if rep.FaultStats == nil || rep.FaultStats.SyscallInjected == 0 {
		t.Fatalf("plan injected nothing: %+v", rep.FaultStats)
	}
}

// Chaos decisions must not depend on the worker bound: the per-replica
// injectors key their streams by global action index.
func TestShardedFaultDeterministicAcrossShardCounts(t *testing.T) {
	tr, snap := genGroups(t, 4, 40, false)
	plan := fault.Plan{
		Seed:    5,
		Syscall: fault.SyscallPlan{Rate: 0.25},
		Retry:   fault.RetryPlan{MaxAttempts: 2},
	}
	var base string
	for _, shards := range []int{1, 2, 8} {
		rep, _ := shardedOn(t, tr, snap, Options{}, shards, &plan)
		if rep.FaultStats == nil || rep.FaultStats.SyscallInjected == 0 {
			t.Fatalf("shards=%d: plan injected nothing", shards)
		}
		js := reportJSON(t, rep)
		if base == "" {
			base = js
		} else if js != base {
			t.Fatalf("shards=%d: chaos report differs from shards=1", shards)
		}
	}
}

// An error-budget abort in a component must abort the sharded replay
// and surface that component's structured stall report.
func TestShardedAbortPropagates(t *testing.T) {
	tr, snap := genGroups(t, 3, 40, false)
	plan := fault.Plan{
		Seed:    11,
		Syscall: fault.SyscallPlan{Rate: 1.0},
		Degrade: fault.DegradeAbort,
	}
	_, _, err := shardedOnErr(t, tr, snap, Options{}, 0, &plan)
	if err == nil {
		t.Fatal("full-rate abort plan replayed cleanly")
	}
	var stall *StallReport
	if !errors.As(err, &stall) {
		t.Fatalf("abort surfaced as %T (%v), want *StallReport", err, err)
	}
	if stall.Errors == 0 {
		t.Fatalf("stall report counts no errors: %+v", stall)
	}
}

// Options.Fault carries a per-kernel injector and cannot describe a
// per-replica plan; sharded replay must reject it loudly.
func TestShardedRejectsOptionsFault(t *testing.T) {
	tr, snap := genGroups(t, 2, 10, false)
	b, err := Compile(tr, snap, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = ReplaySharded(b, Options{Fault: fault.New(fault.Plan{})}, ShardOptions{Target: defaultConf()})
	if err == nil || !strings.Contains(err.Error(), "ShardOptions.Fault") {
		t.Fatalf("Options.Fault accepted: %v", err)
	}
}
