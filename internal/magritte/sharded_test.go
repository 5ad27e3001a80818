package magritte_test

import (
	"encoding/json"
	"testing"

	"rootreplay/internal/artc"
	"rootreplay/internal/core"
	"rootreplay/internal/magritte"
	"rootreplay/internal/sim"
	"rootreplay/internal/stack"
)

// The Magritte traces are the paper's workload corpus and — every one
// of them funnels through shared directories — the partitioner keeps
// each whole (one component). ReplaySharded must therefore reproduce
// Replay byte for byte on every spec, at every shard count.
func TestShardedMagritteMatchesSerial(t *testing.T) {
	opts := magritte.DefaultSuiteOptions()
	specs := magritte.Specs
	if testing.Short() {
		specs = specs[:6]
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.FullName(), func(t *testing.T) {
			gen, err := magritte.Generate(spec, opts.Gen)
			if err != nil {
				t.Fatal(err)
			}
			b, err := artc.Compile(gen.Trace, gen.Snapshot, core.DefaultModes())
			if err != nil {
				t.Fatal(err)
			}

			k := sim.NewKernel()
			sys := stack.New(k, opts.Target)
			if err := magritte.InitTarget(sys, b, opts.DevRandomSymlink); err != nil {
				t.Fatal(err)
			}
			serial, err := artc.Replay(sys, b, artc.Options{Speed: artc.AFAP, SelfCheck: true})
			if err != nil {
				t.Fatal(err)
			}
			want := marshal(t, serial)

			for _, shards := range []int{1, 2, 4, 8} {
				rep, st, err := artc.ReplaySharded(b,
					artc.Options{Speed: artc.AFAP, SelfCheck: true},
					artc.ShardOptions{
						Shards: shards,
						Target: opts.Target,
						Init: func(sys *stack.System) error {
							return magritte.InitTarget(sys, b, opts.DevRandomSymlink)
						},
					})
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if st.Components != 1 {
					t.Fatalf("shards=%d: %s split into %d components", shards, spec.FullName(), st.Components)
				}
				if got := marshal(t, rep); got != want {
					t.Fatalf("shards=%d: sharded report differs from serial", shards)
				}
			}
		})
	}
}

func marshal(t *testing.T, rep *artc.Report) string {
	t.Helper()
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}
