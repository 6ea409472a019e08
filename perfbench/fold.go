package main

import (
	"strings"

	"dbtf/internal/trace"
)

// stageMetric maps an engine stage or driver-section label to the per-layer
// metric its wall time is charged to; labels outside the table (such as
// "checkpoint") stay unattributed.
func stageMetric(name string) string {
	switch {
	case name == "unfold":
		return "core.unfold_s"
	case name == "partition":
		return "core.partition_s"
	case name == "init":
		return "core.init_s"
	case name == "total-error":
		return "core.total_error_s"
	case strings.HasPrefix(name, "build:"):
		return "core.build_s"
	case strings.HasPrefix(name, "eval:"):
		return "core.eval_s"
	case strings.HasPrefix(name, "commit:"):
		return "core.commit_s"
	}
	return ""
}

// coreStages lists the attributed stage metrics in report order.
var coreStages = []string{
	"core.unfold_s", "core.partition_s", "core.init_s", "core.build_s",
	"core.eval_s", "core.commit_s", "core.total_error_s",
}

// folded is one traced Factorize call reduced to wall seconds per stage
// metric.
type folded struct {
	seconds map[string]float64
	// shippedSeconds is the wall time inside the stages a remote
	// transport ships to its workers (build, eval, total-error): over tcp,
	// the time the coordinator waits for them.
	shippedSeconds float64
	iterations     int
	err            int64
}

// fold pairs the stage and driver begin/end events of one run by their
// wall timestamps. Stages pair by stage index; driver sections never
// nest, so each end closes the latest open begin.
func fold(evs []*trace.Event) folded {
	f := folded{seconds: map[string]float64{}}
	stageBegin := map[int64]int64{}
	var driverBegin []int64
	add := func(name string, begin, end int64) {
		if m := stageMetric(name); m != "" {
			f.seconds[m] += float64(end-begin) / 1e9
		}
	}
	for _, ev := range evs {
		switch ev.Type {
		case trace.StageBegin:
			stageBegin[ev.Stage] = ev.WallNanos
		case trace.StageEnd:
			if b, ok := stageBegin[ev.Stage]; ok {
				add(ev.Name, b, ev.WallNanos)
				switch stageMetric(ev.Name) {
				case "core.build_s", "core.eval_s", "core.total_error_s":
					f.shippedSeconds += float64(ev.WallNanos-b) / 1e9
				}
				delete(stageBegin, ev.Stage)
			}
		case trace.DriverBegin:
			driverBegin = append(driverBegin, ev.WallNanos)
		case trace.DriverEnd:
			if n := len(driverBegin); n > 0 {
				add(ev.Name, driverBegin[n-1], ev.WallNanos)
				driverBegin = driverBegin[:n-1]
			}
		case trace.IterationEnd:
			f.iterations++
			if ev.Error != nil {
				f.err = *ev.Error
			}
		}
	}
	return f
}

// attributed sums the stage metrics of f.
func (f folded) attributed() float64 {
	var t float64
	for _, m := range coreStages {
		t += f.seconds[m]
	}
	return t
}
