package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"rootreplay/internal/metrics"
)

// Chrome trace_event export: the recorder's spans and counters rendered
// in the JSON Object Format that Perfetto and chrome://tracing load.
//
// Layout: everything lives under pid 1. Each replayed (traced) thread is
// a track keyed by its TID, named by a thread_name metadata event. Every
// action contributes a complete ("X") slice for its in-call time; if it
// waited before issuing, a second slice in category "wait" covers the
// wait. Dependency releases are flow events ("s"/"f") from the releasing
// action's track to the released action's issue, so Perfetto draws the
// satisfied edge. Counters are "C" events, one named track per
// CounterKind.
//
// All timestamps are virtual-clock microseconds. Because the recorder's
// contents are deterministic and the writer iterates in fixed order
// (metadata by sorted TID, then spans, then samples, in record order),
// the byte stream is identical across runs.

// chromeEvent is one trace_event entry. Field order fixes the JSON
// field order; args maps marshal with sorted keys, so output is
// byte-deterministic.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	ID   int            `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

const chromePID = 1

// usec converts a virtual duration to trace_event microseconds.
func usec(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// WriteChrome writes the recorder's contents as Chrome trace_event JSON.
// Spans are emitted in canonical (Done, Action) order rather than raw
// record order: completion times are monotone within a run, so the sort
// only permutes same-instant ties. Canonicalizing here makes the export
// a pure function of the recorded span set, whatever order the replayer
// recorded same-instant completions in.
func (r *Recorder) WriteChrome(w io.Writer) error {
	spans := r.Spans()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Done != spans[j].Done {
			return spans[i].Done < spans[j].Done
		}
		return spans[i].Action < spans[j].Action
	})
	samples := r.Samples()

	events := make([]chromeEvent, 0, 2*len(spans)+len(samples)+8)

	// Thread-name metadata, sorted by TID for stable output.
	tids := make([]int, 0, 8)
	seen := make(map[int32]bool)
	byAction := make(map[int32]int32, len(spans)) // action -> TID, for flows
	for i := range spans {
		sp := &spans[i]
		byAction[sp.Action] = sp.TID
		if !seen[sp.TID] {
			seen[sp.TID] = true
			tids = append(tids, int(sp.TID))
		}
	}
	sort.Ints(tids)
	for _, tid := range tids {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", PID: chromePID, TID: tid,
			Args: map[string]any{"name": fmt.Sprintf("replay-T%d", tid)},
		})
	}

	for i := range spans {
		sp := &spans[i]
		if wait := sp.Wait(); wait > 0 {
			events = append(events, chromeEvent{
				Name: sp.Call, Cat: "wait", Ph: "X",
				TS: usec(sp.WaitStart), Dur: usec(wait),
				PID: chromePID, TID: int(sp.TID),
				Args: map[string]any{"action": sp.Action, "predelay_us": usec(sp.Predelay)},
			})
		}
		args := map[string]any{"action": sp.Action}
		if sp.ReleaseRes != "" {
			args["release_res"] = sp.ReleaseRes
		}
		events = append(events, chromeEvent{
			Name: sp.Call, Cat: "call", Ph: "X",
			TS: usec(sp.Issue), Dur: usec(sp.InCall()),
			PID: chromePID, TID: int(sp.TID),
			Args: args,
		})
		// Flow from the releasing action's track to this action's issue.
		// Flow ids must be nonzero and unique per arrow; action index + 1
		// is both (each action is released at most once).
		if sp.ReleasedBy >= 0 {
			fromTID, ok := byAction[sp.ReleasedBy]
			if !ok {
				continue // releaser's span fell out of the ring
			}
			events = append(events, chromeEvent{
				Name: "dep", Cat: "dep", Ph: "s",
				TS: usec(sp.ReleasedAt), PID: chromePID, TID: int(fromTID),
				ID: int(sp.Action) + 1,
			})
			events = append(events, chromeEvent{
				Name: "dep", Cat: "dep", Ph: "f", BP: "e",
				TS: usec(sp.Issue), PID: chromePID, TID: int(sp.TID),
				ID: int(sp.Action) + 1,
			})
		}
	}

	for _, s := range samples {
		events = append(events, chromeEvent{
			Name: s.Kind.String(), Ph: "C",
			TS: usec(s.At), PID: chromePID, TID: 0,
			Args: map[string]any{"value": s.Value},
		})
	}

	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(&doc)
}

// Summary renders a fixed-width text digest of the recorded replay:
// per-call wait/in-call totals (sorted by in-call time) and, per counter
// track, the sample count and maximum.
func (r *Recorder) Summary() string {
	spans := r.Spans()
	samples := r.Samples()
	var b strings.Builder

	type agg struct {
		name           string
		n              int
		wait, inCall   time.Duration
		maxWait, maxIn time.Duration
	}
	byCall := make(map[string]*agg)
	for i := range spans {
		sp := &spans[i]
		a := byCall[sp.Call]
		if a == nil {
			a = &agg{name: sp.Call}
			byCall[sp.Call] = a
		}
		a.n++
		w, in := sp.Wait(), sp.InCall()
		a.wait += w
		a.inCall += in
		if w > a.maxWait {
			a.maxWait = w
		}
		if in > a.maxIn {
			a.maxIn = in
		}
	}
	aggs := make([]*agg, 0, len(byCall))
	for _, a := range byCall {
		aggs = append(aggs, a)
	}
	sort.Slice(aggs, func(i, j int) bool {
		if aggs[i].inCall != aggs[j].inCall {
			return aggs[i].inCall > aggs[j].inCall
		}
		return aggs[i].name < aggs[j].name
	})
	droppedSpans, droppedSamples := r.Dropped()
	fmt.Fprintf(&b, "spans: %d recorded", len(spans))
	if droppedSpans > 0 {
		fmt.Fprintf(&b, " (%d dropped by ring wrap)", droppedSpans)
	}
	b.WriteString("\n")
	if len(aggs) > 0 {
		t := metrics.NewTable("call", "n", "wait", "in-call", "max-wait", "max-in-call")
		for _, a := range aggs {
			t.Row(a.name, a.n, a.wait, a.inCall, a.maxWait, a.maxIn)
		}
		b.WriteString(t.String())
	}

	type cagg struct {
		n   int
		max float64
	}
	var counters [numCounters]cagg
	for _, s := range samples {
		if int(s.Kind) >= int(numCounters) {
			continue
		}
		counters[s.Kind].n++
		if s.Value > counters[s.Kind].max {
			counters[s.Kind].max = s.Value
		}
	}
	any := false
	for k := CounterKind(0); k < numCounters; k++ {
		if counters[k].n > 0 {
			any = true
		}
	}
	if any {
		fmt.Fprintf(&b, "counters: %d sample(s)", len(samples))
		if droppedSamples > 0 {
			fmt.Fprintf(&b, " (%d dropped by ring wrap)", droppedSamples)
		}
		b.WriteString("\n")
		t := metrics.NewTable("counter", "samples", "max")
		for k := CounterKind(0); k < numCounters; k++ {
			if counters[k].n > 0 {
				t.Row(k.String(), counters[k].n, counters[k].max)
			}
		}
		b.WriteString(t.String())
	}
	return b.String()
}
