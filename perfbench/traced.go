package main

import (
	"bytes"
	"fmt"
	"math"
	"path"
	"runtime"
	"runtime/pprof"
	"strings"
)

// layers are the program's packages a request crosses, with the client
// package split into its two traffic models and runtime standing for
// GC and scheduler time that no program frame owns. Frames of other
// program packages (and the benchmark's own) are charged to other.
var layers = []string{
	"sim", "net", "mds", "cache", "namespace", "partition", "core",
	"storage", "dirstore", "client.closed", "client.population",
	"workload", "lease", "fsgen", "snap", "endure", "metrics",
	"cluster", "chaos", "msg", "runtime", "other",
}

const programPrefix = "dynmds/internal/"

// layerOf charges a stack (leaf first) to the innermost frame in a
// program package, so that allocation and hashing done on behalf of
// cache.Insert count to cache.
func layerOf(stack []frame) string {
	for i, f := range stack {
		var pkg string
		switch {
		case strings.HasPrefix(f.name, programPrefix):
			pkg = f.name[len(programPrefix):]
			if j := strings.IndexByte(pkg, '.'); j >= 0 {
				pkg = pkg[:j]
			}
		case strings.HasPrefix(f.name, "main."):
			return "other"
		default:
			continue
		}
		if pkg == "client" {
			return clientLayer(stack[i:])
		}
		for _, l := range layers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	return "runtime"
}

// clientLayer splits the client package: the closed-loop Client lives
// in client.go, the open-loop Population in the other files. The hint
// table serves both, so it goes to whichever model called it.
func clientLayer(stack []frame) string {
	for _, f := range stack {
		if !strings.HasPrefix(f.name, programPrefix+"client.") {
			break
		}
		switch path.Base(f.file) {
		case "client.go":
			return "client.closed"
		case "hints.go":
			continue
		default:
			return "client.population"
		}
	}
	return "client.population"
}

// allocSampleRate is the allocation profile's sampling rate in bytes
// (runtime.MemProfileRate) during the traced run phase. Recording every
// allocation (rate 1) costs several microseconds per object, because the
// runtime attaches a record to each one; on shift-closed's 19 M
// allocations that alone takes minutes. Sampled records are scaled up by
// their inclusion probability and the layer totals are then normalised
// to the run phase's exact allocation count from runtime.MemStats.
const allocSampleRate = 512

// allocKey identifies one allocation-profile record: the runtime keeps
// a record per stack and object size, so each record's inclusion
// probability is exact.
type allocKey struct {
	stack [32]uintptr
	size  int64
}

// allocSnapshot reads the allocation profile after a GC has published
// every record: objects allocated per stack and size.
func allocSnapshot() map[allocKey]int64 {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	out := make(map[allocKey]int64, n)
	for _, r := range recs[:n] {
		if r.AllocObjects > 0 {
			out[allocKey{r.Stack0, r.AllocBytes / r.AllocObjects}] += r.AllocObjects
		}
	}
	return out
}

// chargeAllocs charges the allocations sampled between two snapshots
// to layers and scales the result to total allocations.
func chargeAllocs(before, after map[allocKey]int64, total uint64) map[string]float64 {
	out := map[string]float64{}
	sum := 0.0
	for key, n := range after {
		objects := n - before[key]
		if objects <= 0 {
			continue
		}
		est := float64(objects) / (1 - math.Exp(-float64(key.size)/allocSampleRate))
		pcs := key.stack[:]
		for i, pc := range pcs {
			if pc == 0 {
				pcs = pcs[:i]
				break
			}
		}
		var stack []frame
		frames := runtime.CallersFrames(pcs)
		for {
			f, more := frames.Next()
			stack = append(stack, frame{name: f.Function, file: f.File})
			if !more {
				break
			}
		}
		out[layerOf(stack)] += est
		sum += est
	}
	for l := range out {
		out[l] *= float64(total) / sum
	}
	return out
}

// timedCalls are public calls of the run phase whose CPU time the
// traced pass reports: each metric sums the samples with the call on
// their stack.
var timedCalls = map[string]string{
	"endure.quiesce_s": programPrefix + "cluster.(*Cluster).Quiesce",
	"snap.encode_s":    programPrefix + "cluster.(*Cluster).CheckpointTo",
	"snap.decode_s":    programPrefix + "cluster.(*Cluster).RestoreCheckpoint",
}

func onStack(stack []frame, fn string) bool {
	for _, f := range stack {
		if f.name == fn {
			return true
		}
	}
	return false
}

// overheadPasses is how many untraced and how many profiled passes the
// tracing overhead compares, fastest against fastest: host speed drifts
// from pass to pass by more than the profiler costs.
const overheadPasses = 3

// traced is the per-layer pass. After a warm-up pass it runs the first
// traffic seed overheadPasses times untraced (the reference for the
// tracing overhead), as often under the CPU profiler (self time per
// layer and per timed public call, from the fastest profiled pass), and
// once with allocations sampled (allocations per layer). All passes
// must report identical simulated statistics.
func traced(w scenario, seed int64, tmp string) (*report, error) {
	cfg := w.config(trafficSeed(seed, 0), false)
	warm, err := runOnce(w, cfg, tmp, hooks{})
	if err != nil {
		return nil, err
	}
	passes := []*repeat{warm}
	var plain, cpu *repeat
	var prof []byte
	for i := 0; i < overheadPasses; i++ {
		r, err := runOnce(w, cfg, tmp, hooks{})
		if err != nil {
			return nil, err
		}
		passes = append(passes, r)
		if plain == nil || r.wall < plain.wall {
			plain = r
		}
		var buf bytes.Buffer
		var profErr error
		r, err = runOnce(w, cfg, tmp, hooks{
			before: func() { profErr = pprof.StartCPUProfile(&buf) },
			after:  pprof.StopCPUProfile,
		})
		if err != nil {
			return nil, err
		}
		if profErr != nil {
			return nil, fmt.Errorf("cpu profile: %w", profErr)
		}
		passes = append(passes, r)
		if cpu == nil || r.wall < cpu.wall {
			cpu, prof = r, buf.Bytes()
		}
	}
	samples, err := parseCPUProfile(prof)
	if err != nil {
		return nil, err
	}

	rate := runtime.MemProfileRate
	var before, after map[allocKey]int64
	alloc, err := runOnce(w, cfg, tmp, hooks{
		before: func() {
			before = allocSnapshot()
			runtime.MemProfileRate = allocSampleRate
		},
		after: func() {
			runtime.MemProfileRate = rate
			after = allocSnapshot()
		},
	})
	if err != nil {
		return nil, err
	}

	rep := newReport([][]*repeat{append(passes, alloc)})
	o := plain.out
	ops := float64(o.ops)
	m := rep.Metrics
	self := map[string]int64{}
	calls := map[string]int64{}
	for _, s := range samples {
		self[layerOf(s.stack)] += s.nanos
		for name, fn := range timedCalls {
			if onStack(s.stack, fn) {
				calls[name] += s.nanos
			}
		}
	}
	allocs := chargeAllocs(before, after, alloc.mallocs)
	for _, l := range layers {
		m[l+".self_s"] = metric{float64(self[l]) / 1e9, "s"}
		m[l+".allocs_per_op"] = metric{allocs[l] / ops, "allocs"}
	}
	m["trace.overhead_s"] = metric{(cpu.wall - plain.wall).Seconds(), "s"}
	m["fsgen.generate_s"] = metric{cpu.generate.Seconds(), "s"}
	m["cluster.new_s"] = metric{cpu.build.Seconds(), "s"}
	for name := range timedCalls {
		m[name] = metric{float64(calls[name]) / 1e9, "s"}
	}
	m["sim.events_per_op"] = metric{float64(o.events) / ops, "events"}
	m["net.messages_per_op"] = metric{float64(o.messages) / ops, "msgs"}
	m["net.bytes_per_op"] = metric{float64(o.bytes) / ops, "B"}
	m["net.max_link_queue"] = metric{float64(o.maxLinkQueue), "msgs"}
	m["mds.forward_frac"] = metric{o.forwardFrac, "frac"}
	m["cache.hit_rate"] = metric{o.hitRate, "frac"}
	m["cache.prefix_frac"] = metric{o.prefixFrac, "frac"}
	m["core.migrations"] = metric{float64(o.migrations), "count"}
	m["lease.hits"] = metric{float64(o.leaseHits), "count"}
	m["lease.grants"] = metric{float64(o.leaseGrants), "count"}
	m["lease.recalls"] = metric{float64(o.leaseRecalls), "count"}
	m["lease.fanouts"] = metric{float64(o.fanouts), "count"}
	m["lease.hit_frac"] = metric{o.leaseHitFrac, "frac"}
	m["client.pop_bytes_per_client"] = metric{o.popBytesPerClient, "B"}
	m["namespace.tombstones"] = metric{float64(o.tombstones), "count"}
	m["namespace.live_inodes"] = metric{float64(o.liveInodes), "count"}
	m["namespace.lazy_miss_rate"] = metric{o.lazyMissRate, "frac"}
	m["snap.bytes"] = metric{float64(o.snapBytes), "B"}
	m["endure.drift"] = metric{o.drift, "frac"}
	return rep, nil
}
