package workload_test

import (
	"bytes"
	"os"
	"testing"

	"rootreplay/internal/artc"
	"rootreplay/internal/core"
	"rootreplay/internal/shard"
	"rootreplay/internal/sim"
	"rootreplay/internal/stack"
	"rootreplay/internal/workload"
)

func targetConf() stack.Config {
	c := stack.DefaultConfig()
	c.Scheduler = stack.SchedNoop
	return c
}

// The family must partition into exactly N components, skewed sizes
// when asked, and replay without semantic errors
// both serially and sharded.
func TestComponentsFamilyShape(t *testing.T) {
	params := workload.Components{N: 8, Ops: 400, Skew: 1.0, Seed: 3}
	tr, snap, err := workload.SynthComponents(params)
	if err != nil {
		t.Fatal(err)
	}
	b, err := artc.Compile(tr, snap, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	p := shard.Partition(b.Analysis, b.Graph)
	if len(p.Components) != params.N {
		t.Fatalf("got %d components, want %d", len(p.Components), params.N)
	}
	if first, last := len(p.Components[0]), len(p.Components[params.N-1]); first <= last {
		t.Fatalf("skew 1.0 not skewed: first component %d actions, last %d", first, last)
	}

	k := sim.NewKernel()
	sys := stack.New(k, targetConf())
	if err := artc.Init(sys, b, ""); err != nil {
		t.Fatal(err)
	}
	serial, err := artc.Replay(sys, b, artc.Options{SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Errors != 0 {
		t.Fatalf("serial replay: %d semantic errors: %v", serial.Errors, serial.ErrorSamples)
	}

	rep, st, err := artc.ReplaySharded(b, artc.Options{SelfCheck: true}, artc.ShardOptions{
		Target: targetConf(),
		Init:   func(sys *stack.System) error { return artc.Init(sys, b, "") },
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Components != params.N {
		t.Fatalf("sharded partition %+v", st)
	}
	if rep.Errors != 0 {
		t.Fatalf("sharded replay: %d semantic errors: %v", rep.Errors, rep.ErrorSamples)
	}
	if rep.Actions != serial.Actions || rep.Emulated != serial.Emulated {
		t.Fatalf("sharded diverged: %d/%d actions, %d/%d emulated",
			rep.Actions, serial.Actions, rep.Emulated, serial.Emulated)
	}
}

// Generation is a pure function of the parameters: two runs must
// produce byte-identical traces (CI regenerates the checked-in spec
// and diffs against it).
func TestComponentsFamilyDeterministic(t *testing.T) {
	params := workload.Components{N: 5, Ops: 200, Skew: 0.5, Seed: 11}
	enc := func() []byte {
		tr, _, err := workload.SynthComponents(params)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(enc(), enc()) {
		t.Fatal("two generations of the same parameters differ")
	}
}

// The checked-in spec pins the generator's output: regeneration with
// the recorded parameters must reproduce it byte for byte (CI runs the
// same check through cmd/tracegen).
func TestComponentsFamilyGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/components_small.trace")
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := workload.SynthComponents(workload.Components{N: 5, Ops: 200, Skew: 0.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("regenerated spec differs from testdata/components_small.trace (%d vs %d bytes)",
			buf.Len(), len(want))
	}
}
