package telemetry

import "runtime/metrics"

// registerRuntime adds the Go runtime's collector figures to reg, read from
// runtime/metrics at scrape time only, so the serve path pays nothing for
// them: completed GC cycles, the CPU time the collector took, and the heap
// goal the next cycle starts at. They belong to the process, not to an
// engine, so they carry no node label.
func registerRuntime(reg *Registry) {
	read := func(name string) float64 {
		s := []metrics.Sample{{Name: name}}
		metrics.Read(s)
		switch s[0].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[0].Value.Uint64())
		case metrics.KindFloat64:
			return s[0].Value.Float64()
		}
		return 0
	}
	reg.CounterFunc("botdetect_go_gc_cycles_total", "", "Completed garbage-collection cycles of the Go runtime.",
		func() float64 { return read("/gc/cycles/total:gc-cycles") })
	reg.CounterFunc("botdetect_go_gc_cpu_seconds_total", "", "CPU time the Go runtime estimates it spent on garbage collection, in seconds.",
		func() float64 { return read("/cpu/classes/gc/total:cpu-seconds") })
	reg.GaugeFunc("botdetect_go_heap_goal_bytes", "Heap size at which the Go runtime starts its next garbage-collection cycle.",
		func(emit func(labels string, v float64)) { emit("", read("/gc/heap/goal:bytes")) })
}
