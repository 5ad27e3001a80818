package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"rootreplay/internal/sim"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
)

// Components parameterizes the sharded-replay scale family: a
// synthetic trace of many mutually independent file-working groups,
// sized into the millions of actions. Each component runs on its own
// traced thread against its own directory, so the dependency-closure
// partitioner (internal/shard) splits the trace into exactly N
// components — the shape the sharded replayer parallelizes perfectly.
//
// Unlike the other workloads, SynthComponents builds records directly
// instead of running threads through a simulated source machine:
// generation is a deterministic function of the parameters (no kernel,
// no device model), which keeps multi-million-action corpora cheap to
// produce and lets CI regenerate the checked-in spec byte-for-byte.
type Components struct {
	// N is the number of independent components (default 16).
	N int
	// Ops is the total operation budget across all components; each op
	// expands to a handful of records (default 10000).
	Ops int
	// Skew shapes component sizes: component c receives weight
	// (c+1)^-Skew. Zero gives equal sizes; 1.0 gives a Zipf-like tail
	// where the first components dominate.
	Skew float64
	// FilesPer is the per-component file count (default 4).
	FilesPer int
	// FileBytes is each file's size (default 256 KiB).
	FileBytes int64
	// Seed drives the per-component op mix.
	Seed int64
}

func (c *Components) withDefaults() Components {
	out := *c
	if out.N <= 0 {
		out.N = 16
	}
	if out.Ops <= 0 {
		out.Ops = 10000
	}
	if out.Skew < 0 {
		out.Skew = 0
	}
	if out.FilesPer <= 0 {
		out.FilesPer = 4
	}
	if out.FileBytes <= 0 {
		out.FileBytes = 256 << 10
	}
	return out
}

// opsOf splits the op budget across components by the skew weights,
// guaranteeing every component at least one op.
func (c *Components) opsOf() []int {
	weights := make([]float64, c.N)
	var sum float64
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -c.Skew)
		sum += weights[i]
	}
	out := make([]int, c.N)
	total := 0
	for i := range out {
		out[i] = int(float64(c.Ops) * weights[i] / sum)
		if out[i] < 1 {
			out[i] = 1
		}
		total += out[i]
	}
	// Hand rounding remainder to the largest component.
	if total < c.Ops {
		out[0] += c.Ops - total
	}
	return out
}

// compRecorder emits one component's records on a private virtual
// clock; streams are merged by time afterwards.
type compRecorder struct {
	recs []*trace.Record
	tid  int
	now  time.Duration
	dir  string
}

const compOpGap = 3 * time.Microsecond

func (g *compRecorder) emit(r trace.Record) {
	r.TID = g.tid
	r.Start = g.now
	r.End = g.now + 2*time.Microsecond
	g.now += compOpGap
	rec := r
	g.recs = append(g.recs, &rec)
}

// SynthComponents generates the family's trace and matching snapshot.
func SynthComponents(params Components) (*trace.Trace, *snapshot.Snapshot, error) {
	p := params.withDefaults()

	// The snapshot comes from a real (instant) setup pass so replay
	// restores exactly the tree the records assume.
	k := sim.NewKernel()
	sys := stack.New(k, stack.Config{
		Name: "components", Platform: stack.Linux, Profile: stack.Ext4,
		Device: stack.DeviceSSD, Scheduler: stack.SchedNoop,
	})
	paths := make([][]string, p.N)
	for c := 0; c < p.N; c++ {
		paths[c] = make([]string, p.FilesPer)
		for f := 0; f < p.FilesPer; f++ {
			paths[c][f] = fmt.Sprintf("/comp%04d/f%d", c, f)
			if err := sys.SetupCreate(paths[c][f], p.FileBytes); err != nil {
				return nil, nil, err
			}
		}
	}
	snap := snapshot.Capture(sys)

	ops := p.opsOf()
	streams := make([]*compRecorder, p.N)
	for c := 0; c < p.N; c++ {
		g := &compRecorder{tid: c + 1, dir: fmt.Sprintf("/comp%04d", c)}
		// Each component cycles a distinct fd number: traced fds are
		// process-global, so sharing one would chain every component
		// into a single fd series and defeat the partition.
		fd := int64(3 + c)
		rng := rand.New(rand.NewSource(p.Seed*1e9 + int64(c)))
		blocks := p.FileBytes / 4096
		if blocks < 1 {
			blocks = 1
		}
		for i := 0; i < ops[c]; i++ {
			f := paths[c][rng.Intn(p.FilesPer)]
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4: // read session: open, 2 preads, close
				g.emit(trace.Record{Call: "open", Path: f, Flags: trace.ORdonly, FD: fd, Ret: fd})
				for r := 0; r < 2; r++ {
					off := rng.Int63n(blocks) * 4096
					g.emit(trace.Record{Call: "pread", FD: fd, Offset: off, Size: 4096, Ret: 4096})
				}
				g.emit(trace.Record{Call: "close", FD: fd, Ret: 0})
			case 5, 6: // write session: open rw, pwrite, fsync, close
				g.emit(trace.Record{Call: "open", Path: f, Flags: trace.ORdwr, FD: fd, Ret: fd})
				off := rng.Int63n(blocks) * 4096
				g.emit(trace.Record{Call: "pwrite", FD: fd, Offset: off, Size: 4096, Ret: 4096})
				g.emit(trace.Record{Call: "fsync", FD: fd, Ret: 0})
				g.emit(trace.Record{Call: "close", FD: fd, Ret: 0})
			case 7, 8: // metadata probe
				g.emit(trace.Record{Call: "stat", Path: f, Ret: 0})
			case 9: // failed lookup, exercising errno matching
				g.emit(trace.Record{Call: "stat", Path: g.dir + "/missing", Ret: -1, Err: "ENOENT"})
			}
		}
		streams[c] = g
	}

	// Merge the per-component streams into one total order by (Start,
	// component). Each stream is already time-sorted, so a stable sort
	// of the concatenation interleaves them deterministically.
	total := 0
	for _, g := range streams {
		total += len(g.recs)
	}
	tr := &trace.Trace{Platform: string(stack.Linux), Records: make([]*trace.Record, 0, total)}
	for _, g := range streams {
		tr.Records = append(tr.Records, g.recs...)
	}
	sort.SliceStable(tr.Records, func(i, j int) bool {
		a, b := tr.Records[i], tr.Records[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.TID < b.TID
	})
	tr.Renumber()
	return tr, snap, nil
}
