package telemetry

import (
	"bytes"
	"os"
	"runtime/metrics"
	"strconv"
)

// registerRuntime adds the Go runtime's and the process's figures to reg,
// read at scrape time only, so the serve path pays nothing for them:
// completed GC cycles, the CPU time the collector took, the heap goal the
// next cycle starts at, the runtime's memory by class and the process's
// resident memory (ReadMemoryLedger). They belong to the process, not to an
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

	var classes [len(GoMemoryClasses)]string
	for i, c := range GoMemoryClasses {
		classes[i] = Label("class", c)
	}
	reg.GaugeFunc("botdetect_go_memory_bytes", "Memory the Go runtime has mapped, by class (runtime/metrics /memory/classes); the classes sum to all of it.",
		func(emit func(labels string, v float64)) {
			l := ReadMemoryLedger()
			for i, v := range l.Go {
				emit(classes[i], float64(v))
			}
		})
	anon, file := Label("kind", "anon"), Label("kind", "file")
	reg.GaugeFunc("botdetect_process_resident_bytes", "Resident memory of the process, from its /proc/self/status: anonymous (heap, stacks, mapped table blocks) and file-backed (binary, libraries).",
		func(emit func(labels string, v float64)) {
			if l := ReadMemoryLedger(); l.Resident {
				emit(anon, float64(l.ResidentAnon))
				emit(file, float64(l.ResidentFile))
			}
		})
}

// GoMemoryClasses names the classes of MemoryLedger.Go, in order: heap
// objects (live and dead, with their spans' unused room), free heap not
// returned to the system, heap returned to it (not resident), goroutine and
// system stacks, the runtime's metadata, and everything else it mapped
// (profiling buckets included).
var GoMemoryClasses = [...]string{"heap_objects", "heap_free", "heap_released", "stacks", "metadata", "other"}

// The classes of MemoryLedger.Go.
const (
	goHeapObjects = iota
	goHeapFree
	goHeapReleased
	goStacks
	goMetadata
	goOther
)

// goMemorySamples are the runtime/metrics memory classes, each with the
// ledger class it adds to.
var goMemorySamples = [...]struct {
	name  string
	class int
}{
	{"/memory/classes/heap/objects:bytes", goHeapObjects},
	{"/memory/classes/heap/unused:bytes", goHeapObjects},
	{"/memory/classes/heap/free:bytes", goHeapFree},
	{"/memory/classes/heap/released:bytes", goHeapReleased},
	{"/memory/classes/heap/stacks:bytes", goStacks},
	{"/memory/classes/os-stacks:bytes", goStacks},
	{"/memory/classes/metadata/mcache/free:bytes", goMetadata},
	{"/memory/classes/metadata/mcache/inuse:bytes", goMetadata},
	{"/memory/classes/metadata/mspan/free:bytes", goMetadata},
	{"/memory/classes/metadata/mspan/inuse:bytes", goMetadata},
	{"/memory/classes/metadata/other:bytes", goMetadata},
	{"/memory/classes/other:bytes", goOther},
	{"/memory/classes/profiling/buckets:bytes", goOther},
}

// MemoryLedger is the process's memory at one reading: what the Go runtime
// has mapped, by GoMemoryClasses, and what of the process is resident, from
// its own /proc/self/status (Resident is false where that cannot be read).
// The runtime reports what it mapped, not what of it is resident: its heap
// objects and stacks were written, so they are, but of its free heap, its
// metadata and its other memory only the pages it touched are. Anonymous
// resident memory is the table blocks mapped outside the Go heap and
// touched, the heap objects, the stacks and a residual (Residual), which
// holds the resident part of the rest.
type MemoryLedger struct {
	Go                         [len(GoMemoryClasses)]int64
	ResidentAnon, ResidentFile int64
	Resident                   bool
}

// ReadMemoryLedger reads the process's memory ledger. It allocates, and is
// meant for scrapes and status pages.
func ReadMemoryLedger() MemoryLedger {
	var l MemoryLedger
	samples := make([]metrics.Sample, len(goMemorySamples))
	for i, s := range goMemorySamples {
		samples[i].Name = s.name
	}
	metrics.Read(samples)
	for i, s := range samples {
		if s.Value.Kind() == metrics.KindUint64 {
			l.Go[goMemorySamples[i].class] += int64(s.Value.Uint64())
		}
	}
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return l
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			continue
		}
		var into *int64
		switch string(name) {
		case "RssAnon":
			into = &l.ResidentAnon
		case "RssFile":
			into = &l.ResidentFile
		default:
			continue
		}
		kb, err := strconv.ParseInt(string(bytes.TrimSuffix(bytes.TrimSpace(value), []byte(" kB"))), 10, 64)
		if err != nil {
			return MemoryLedger{Go: l.Go}
		}
		*into = kb << 10
		l.Resident = true
	}
	return l
}

// Residual is the anonymous resident memory past arena, the bytes of the
// table blocks mapped outside the Go heap and touched, the heap objects and
// the stacks: the resident part of the runtime's free heap, metadata and
// other memory, and anything not the runtime's. It is 0 where the resident
// memory cannot be read.
func (l MemoryLedger) Residual(arena int64) int64 {
	if !l.Resident {
		return 0
	}
	return l.ResidentAnon - arena - l.Go[goHeapObjects] - l.Go[goStacks]
}
