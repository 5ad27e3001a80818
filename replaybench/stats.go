package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the definition Python's statistics.median uses at
// q=0.5). It does not modify xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile is the percentile job_tail_s reports for a workload:
// the highest of p99, p98, p90 and p50 that leaves at least ten
// samples beyond it at the sample count a run of the workload always
// reaches. It is fixed per workload, not chosen per run, so that a run
// with more or fewer samples does not switch percentiles. An untraced
// magritte-artcd run keeps taking jobs past the deadline until it has
// minTailJobs of them, which leaves ten beyond p98. A trace pass takes
// one to two seconds, so a run has 12–25 samples: only p50 comes near
// the rule, and it is reported as the closest it allows.
func tailPercentile(workload string) float64 {
	if workload == "magritte-artcd" {
		return 0.98
	}
	return 0.50
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuMeter accumulates process CPU time over wall time across the
// calls it measures: par.cpu_utilization.
type cpuMeter struct {
	cpu, wall time.Duration
}

func (m *cpuMeter) measure(fn func()) {
	c0, w0 := cpuTime(), time.Now()
	fn()
	m.cpu += cpuTime() - c0
	m.wall += time.Since(w0)
}

func (m *cpuMeter) utilization() float64 {
	if m.wall <= 0 {
		return 0
	}
	return m.cpu.Seconds() / (m.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
}

// memDelta is the allocator and collector work between two snapshots.
type memDelta struct {
	mallocs, bytes uint64
	gcs            uint32
	pause          time.Duration
}

// memMeter snapshots runtime.MemStats when tracing is on; a nil meter
// (tracing off) reads nothing, so untraced passes pay no stop-the-world.
type memMeter struct{ last runtime.MemStats }

func (m *memMeter) mark() {
	if m != nil {
		runtime.ReadMemStats(&m.last)
	}
}

// since returns the work since the last mark and marks again.
func (m *memMeter) since() memDelta {
	if m == nil {
		return memDelta{}
	}
	prev := m.last
	runtime.ReadMemStats(&m.last)
	return memDelta{
		mallocs: m.last.Mallocs - prev.Mallocs,
		bytes:   m.last.TotalAlloc - prev.TotalAlloc,
		gcs:     m.last.NumGC - prev.NumGC,
		pause:   time.Duration(m.last.PauseTotalNs - prev.PauseTotalNs),
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "replaybench: "+format+"\n", args...)
}
