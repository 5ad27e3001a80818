// Command replaybench is the repository's end-to-end benchmark. From a
// seed it generates a workload's traces, drives the replayer only
// through its public functions (and artcd's HTTP API), checks every
// output against recorded digests, and prints each metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// -trace 0 measures the end-to-end metrics with tracing off; -trace 1
// records spans around every layer call and reports the per-layer
// metrics instead. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloadDef is one benchmark workload.
type workloadDef struct {
	gen func(seed int64, size float64) (*inputs, error)
	run func(*runCtx) error
}

var workloads = map[string]workloadDef{
	"fsync-pipeline":     {gen: genPipeline, run: runPasses},
	"components-sharded": {gen: genComponents, run: runPasses},
	"magritte-artcd":     {gen: genMagritte, run: runArtcd},
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string  // directory for spans, results and scratch stores
	size     float64 // input size, 1 = the stated benchmark size
	record   string  // digest table to merge this run's digests into
	// Test hooks: perturb flips a bit of every in-process output before
	// it is checked; table replaces the embedded digest table.
	perturb bool
	table   digestTable
}

// runCtx is the state one run accumulates.
type runCtx struct {
	cfg     config
	in      *inputs
	tr      *tracer // nil unless -trace 1
	dig     *digests
	metrics metricSet
	stamp   map[string]any
	// attempted counts operations (trace passes, artcd jobs, probes);
	// failed those that errored, were refused, or drifted.
	attempted, failed int
	errs              []string
	nextOp            int64
}

// op starts a new operation id for spans.
func (rc *runCtx) op() int64 {
	rc.nextOp++
	return rc.nextOp
}

// fail counts a failed operation and keeps the first few reasons.
func (rc *runCtx) fail(err error) {
	rc.failed++
	if len(rc.errs) < 10 {
		rc.errs = append(rc.errs, err.Error())
	}
	logf("operation failed: %v", err)
}

// attempt runs one operation, counting it and any failure.
func (rc *runCtx) attempt(fn func() error) bool {
	rc.attempted++
	if err := fn(); err != nil {
		rc.fail(err)
		return false
	}
	return true
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := config{size: 1}
	flag.StringVar(&cfg.workload, "workload", "", "workload: fsync-pipeline, components-sharded or magritte-artcd")
	flag.Int64Var(&cfg.seed, "seed", 1, "input generation seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "seconds to measure")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for spans, results and scratch artifact stores")
	flag.StringVar(&cfg.record, "record-digests", "", "merge this run's output digests into the given table file")
	flag.Parse()
	cfg.trace = *trace == 1
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run generates the workload's inputs, measures it, and assembles the
// result. Errors are set-up failures; failed operations are counted in
// the result instead.
func run(cfg config) (*result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	table := cfg.table
	if table == nil {
		var err error
		if table, err = loadDigests(); err != nil {
			return nil, err
		}
	}
	key := digestKey(cfg.workload, cfg.size, cfg.seed)
	rc := &runCtx{
		cfg:     cfg,
		dig:     &digests{recorded: table[key], seen: map[string]string{}, perturb: cfg.perturb},
		metrics: metricSet{},
	}
	if cfg.trace {
		rc.tr = newTracer()
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	var err error
	if rc.in, err = w.gen(cfg.seed, cfg.size); err != nil {
		return nil, err
	}
	// The generator's garbage is not the program's: collect it before
	// anything is measured.
	runtime.GC()
	rc.stamp = map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "size": cfg.size, "trace": cfg.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"records": rc.in.records, "strace_bytes": straceBytes(rc.in),
		"digests_recorded": len(rc.dig.recorded) > 0,
	}
	if err := w.run(rc); err != nil {
		return nil, err
	}
	if cfg.size == 1 {
		comps, _ := rc.stamp["components"].(int)
		if err := checkShape(cfg.workload, rc.in.records, comps); err != nil {
			rc.errs = append(rc.errs, "shape: "+err.Error())
		}
	}
	if cfg.record != "" && rc.failed == 0 {
		if err := recordDigests(cfg.record, key, rc.dig.seen); err != nil {
			return nil, err
		}
	}
	rc.stamp["failed_ratio"] = float64(rc.failed) / float64(rc.attempted)

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	ms, missing := rc.metrics.render(defs)
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not produced: %s", strings.Join(missing, ", "))
	}
	res := &result{
		Correct:   rc.failed == 0 && len(rc.errs) == 0,
		Attempted: rc.attempted,
		Failed:    rc.failed,
		Metrics:   ms,
	}
	rc.stamp["errors"] = rc.errs
	if err := writeDetail(rc, res); err != nil {
		return nil, err
	}
	stamp, err := json.Marshal(rc.stamp)
	if err != nil {
		return nil, err
	}
	fmt.Println("stamp " + string(stamp))
	return res, nil
}

func straceBytes(in *inputs) int {
	n := 0
	for _, t := range in.traces {
		n += len(t.raw)
	}
	return n
}

// writeDetail writes the stamp, result and spans of the run under
// cfg.out, where later analysis can find them.
func writeDetail(rc *runCtx, res *result) error {
	cfg := rc.cfg
	name := fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, map[bool]int{false: 0, true: 1}[cfg.trace])
	dir := filepath.Join(cfg.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Stamp  map[string]any `json:"stamp"`
		Result *result        `json:"result"`
	}{rc.stamp, res}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if rc.tr != nil {
		return writeSpans(filepath.Join(cfg.out, "spans"), name+".jsonl", rc.tr.closed())
	}
	return nil
}

// deadline is when a measurement loop stops starting operations.
func deadline(cfg config) time.Time {
	return time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
}
