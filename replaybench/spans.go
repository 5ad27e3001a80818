package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Spans of one trace pass or artcd job share Op.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer is
// tracing off: begin and end do nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent, op int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// closed returns a copy of the finished spans.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// layerSpans maps each per-layer time metric to the name of the span
// timed around calls into that layer.
var layerSpans = map[string]string{
	"trace.parse_s": "trace.parse", "artc.compile_s": "artc.compile",
	"core.analyze_s": "core.analyze", "core.build_graph_s": "core.build_graph",
	"core.reduce_s": "core.reduce", "artc.init_s": "artc.init",
	"artc.replay_s": "artc.replay", "artc.replay_sharded_s": "artc.replay_sharded",
	"shard.partition_s": "shard.partition", "artifact.get_s": "artifact.get",
	"artifact.put_s": "artifact.put",
}

// selfTimes maps each span id to its duration minus the part of its
// interval that its children cover.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// layerTimes sums, per op, the durations (or self times) of the spans
// with the given name, and returns the per-op sums in op order.
func layerTimes(spans []span, name string, self map[int64]time.Duration) []float64 {
	perOp := make(map[int64]time.Duration)
	var ops []int64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		d := time.Duration(s.End - s.Start)
		if self != nil {
			d = self[s.ID]
		}
		if _, ok := perOp[s.Op]; !ok {
			ops = append(ops, s.Op)
		}
		perOp[s.Op] += d
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = perOp[op].Seconds()
	}
	return out
}

// writeSpans writes the spans as JSON lines to dir/name.
func writeSpans(dir, name string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return f.Close()
}
