package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"rootreplay/internal/magritte"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/trace"
	"rootreplay/internal/workload"
)

// input is one generated trace as a user hands it to the program:
// strace text, plus an encoded snapshot where the workload ships one.
type input struct {
	name string
	raw  []byte
	snap []byte
}

// inputs is everything a workload generates from its seed.
type inputs struct {
	traces  []input
	records int // records the generator emitted
	seed    int64
}

// jobSpec is one artcd job: which corpus trace, and which job kind.
type jobSpec struct {
	trace int
	kind  string
}

// Input sizes at size 1, the benchmark's stated size. The self-test
// runs the same generators at a small fraction of it.
const (
	pipelineOps   = 2000   // ops per stage; ~53.8k records
	componentsOps = 100000 // ~310k records
	magritteScale = 0.01   // Table 3 event counts x 0.01
)

func scaled(n int, size float64) int {
	return max(1, int(math.Round(float64(n)*size)))
}

func encodeStrace(tr *trace.Trace) ([]byte, error) {
	var buf bytes.Buffer
	if err := trace.EncodeStrace(&buf, tr); err != nil {
		return nil, fmt.Errorf("encoding strace: %w", err)
	}
	return buf.Bytes(), nil
}

// genPipeline is the fsync-pipeline input: workload.SynthPipeline with
// every second private write session fsynced, one component.
func genPipeline(seed int64, size float64) (*inputs, error) {
	tr, _, err := workload.SynthPipeline(workload.Pipeline{
		Stages: 8, Ops: scaled(pipelineOps, size), Handoff: 64, Fsync: 2,
		FileBytes: 8 << 20, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	raw, err := encodeStrace(tr)
	if err != nil {
		return nil, err
	}
	return &inputs{traces: []input{{name: "pipeline", raw: raw}}, records: len(tr.Records)}, nil
}

// genComponents is the components-sharded input: 64 disjoint groups
// sized by a (c+1)^-0.5 skew.
func genComponents(seed int64, size float64) (*inputs, error) {
	tr, _, err := workload.SynthComponents(workload.Components{
		N: 64, Ops: scaled(componentsOps, size), Skew: 0.5, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("components: %w", err)
	}
	raw, err := encodeStrace(tr)
	if err != nil {
		return nil, err
	}
	return &inputs{traces: []input{{name: "components", raw: raw}}, records: len(tr.Records)}, nil
}

// magritteGenSeeds are the generation seeds of the two variants of
// each Magritte spec. They are fixed, not drawn from the benchmark
// seed: the cost of one spec's trace varies by ±12% across generation
// seeds (iphoto_edit400, which dominates the corpus's replay time), and
// that would make runs with different benchmark seeds measure
// different amounts of work.
var magritteGenSeeds = [2]int64{1, 2}

// genMagritte is the magritte-artcd corpus: every one of the 34
// Magritte specs in two variants, 68 traces, stored spec by spec.
func genMagritte(seed int64, size float64) (*inputs, error) {
	in := &inputs{seed: seed}
	for _, spec := range magritte.Specs {
		for _, gs := range magritteGenSeeds {
			g, err := magritte.Generate(spec, magritte.GenOptions{Scale: magritteScale * size, Seed: gs})
			if err != nil {
				return nil, fmt.Errorf("magritte %s: %w", spec.FullName(), err)
			}
			raw, err := encodeStrace(g.Trace)
			if err != nil {
				return nil, err
			}
			var snap bytes.Buffer
			if err := g.Snapshot.Encode(&snap); err != nil {
				return nil, fmt.Errorf("encoding snapshot: %w", err)
			}
			in.traces = append(in.traces, input{
				name: fmt.Sprintf("%s/g%d", spec.FullName(), gs), raw: raw, snap: snap.Bytes(),
			})
			in.records += len(g.Trace.Records)
		}
	}
	return in, nil
}

// roundJobs is the job sequence of one magritte-artcd round: four jobs
// per spec, two per variant, so half of the round's jobs name a trace
// an earlier job of the round already named, and one job per spec is an
// export job. The 50% repeat share and 25% export share are assumed:
// no observed artcd traffic exists to take them from. Every trace
// repeats exactly once rather than by a seeded draw, because a draw
// would change a round's work with the seed: two variants of
// iphoto_edit400 take most of the corpus's replay time. A draw from the
// benchmark seed and the round number picks which of each spec's four
// jobs is the export job and the order of the round's jobs. Each round
// draws anew, so which long jobs run side by side averages out over a
// run instead of being fixed by the seed.
func (in *inputs) roundJobs(round int) []jobSpec {
	rng := rand.New(rand.NewSource(in.seed*1_000_003 + int64(round)))
	var jobs []jobSpec
	for first := 0; first < len(in.traces); first += len(magritteGenSeeds) {
		exportAt := rng.Intn(4)
		for j := 0; j < 4; j++ {
			kind := "replay"
			if j == exportAt {
				kind = "export"
			}
			jobs = append(jobs, jobSpec{trace: first + j/2, kind: kind})
		}
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// repeatShare is the share of jobs whose trace an earlier job of the
// same sequence already named: the artifact cache's hit share.
func repeatShare(jobs []jobSpec) float64 {
	seen := make(map[int]bool)
	repeats := 0
	for _, j := range jobs {
		if seen[j.trace] {
			repeats++
		}
		seen[j.trace] = true
	}
	return float64(repeats) / float64(len(jobs))
}

func decodeSnapshot(raw []byte) (*snapshot.Snapshot, error) {
	if raw == nil {
		return nil, nil
	}
	s, err := snapshot.Decode(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("decoding snapshot: %w", err)
	}
	return s, nil
}

// shapeBand is the generator-stability contract at size 1: any seed
// yields a record count within ±band of nominal and exactly the stated
// component count (summed over the corpus for magritte-artcd, whose
// traces are one component each). Seeds 1-6 span under 0.3% of the
// nominal record counts.
type shapeBand struct {
	records    int
	band       float64
	components int
}

var shapes = map[string]shapeBand{
	"fsync-pipeline":     {records: 53800, band: 0.02, components: 1},
	"components-sharded": {records: 310000, band: 0.02, components: 64},
	"magritte-artcd":     {records: 90350, band: 0.02, components: 68},
}

// checkShape reports how a generated input departs from its band.
func checkShape(workload string, records, components int) error {
	b, ok := shapes[workload]
	if !ok {
		return fmt.Errorf("no shape band for %q", workload)
	}
	if dev := math.Abs(float64(records)/float64(b.records) - 1); dev > b.band {
		return fmt.Errorf("%s: %d records, %.1f%% from nominal %d (band ±%.0f%%)",
			workload, records, 100*dev, b.records, 100*b.band)
	}
	if b.components != 0 && components != b.components {
		return fmt.Errorf("%s: %d components, want %d", workload, components, b.components)
	}
	return nil
}
