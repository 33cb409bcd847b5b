// Command perfbench is the repository's benchmark. It builds one of
// three workloads through the simulator's public packages, runs it, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer ones)
// as one JSON object on the last line of standard output:
//
//	go run . -workload shift-closed -seed 1 -seconds 20 -trace 0
//
// A run makes passes (set-up plus run phase) over several traffic seeds
// derived from -seed until -seconds have passed, and every pass of one
// traffic seed must report the same simulated statistics; untraced and
// traced say how the figures are taken. See README.md for the workloads,
// metrics and checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"dynmds/internal/cluster"
	"dynmds/internal/fsgen"
)

// minRounds is the least number of measured rounds: wall_s takes each
// traffic seed's fastest pass, which needs a choice.
const minRounds = 2

// setup_s is the median of at least minSetups set-ups that together
// take at least minSetupTime.
const (
	minSetups    = 31
	minSetupTime = 3 * time.Second
)

// namespaceSeed generates every workload's namespace: the file system
// under test stays fixed and -seed drives the client traffic, so that
// runs on different seeds do comparable work.
const namespaceSeed = 1

func main() {
	name := flag.String("workload", "", "workload: shift-closed, hotspot-leases or aging-1m")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "how long to keep repeating the workload")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	tmp := flag.String("tmpdir", ".bench_build/tmp", "directory for checkpoint files")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*tmp, "run-")
	if err != nil {
		fatal(err)
	}
	var rep *report
	if *trace == 1 {
		rep, err = traced(w, *seed, dir)
	} else {
		rep, err = untraced(w, *seed, time.Duration(*seconds)*time.Second, dir)
	}
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// repeat is one set-up plus run phase.
type repeat struct {
	generate, build time.Duration // fsgen.GenerateFrozen, cluster.New
	wall            time.Duration // run phase
	mallocs, bytes  uint64        // heap allocations in the run phase
	heap            uint64        // live heap held by the run cluster
	out             *outcome
}

func (r *repeat) setup() time.Duration { return r.generate + r.build }

// hooks wrap the run phase for the traced pass.
type hooks struct {
	before, after func()
}

// setUp generates the namespace and builds the cluster, timing both,
// after a forced GC so that earlier garbage is not charged to it.
func setUp(cfg cluster.Config) (*cluster.Cluster, *repeat, error) {
	runtime.GC()
	rep := &repeat{}
	t := time.Now()
	fs := cfg.FS
	fs.Seed = namespaceSeed
	frozen, err := fsgen.GenerateFrozen(fs)
	if err != nil {
		return nil, nil, fmt.Errorf("generating the namespace: %w", err)
	}
	rep.generate = time.Since(t)
	cfg.Snapshot = frozen
	t = time.Now()
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("building the cluster: %w", err)
	}
	rep.build = time.Since(t)
	return c, rep, nil
}

// runOnce sets up and runs the workload. A pass without hooks reads the
// live heap after a forced GC at the end of the run phase, while the
// run's cluster and its frozen namespace are still held, and leaves the
// time that takes out of the run phase; a traced pass skips it, so that
// the forced GC stays out of its profiles.
func runOnce(w scenario, cfg cluster.Config, tmp string, h hooks) (*repeat, error) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap0 := ms.HeapAlloc
	c, rep, err := setUp(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	e := env{c: c, cfg: c.Cfg, tmp: tmp, held: func() {}}
	if w.ownCluster {
		e.c, c = nil, nil
	}
	var heldFor time.Duration
	if h.before == nil {
		e.held = func() {
			t := time.Now()
			var hs runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&hs)
			rep.heap = hs.HeapAlloc - heap0
			heldFor += time.Since(t)
		}
	}

	runtime.GC()
	runtime.ReadMemStats(&ms)
	mallocs0, bytes0 := ms.Mallocs, ms.TotalAlloc
	if h.before != nil {
		h.before()
	}
	t := time.Now()
	rep.out = w.run(e)
	rep.wall = time.Since(t) - heldFor
	if h.after != nil {
		h.after()
	}
	runtime.ReadMemStats(&ms)
	rep.mallocs, rep.bytes = ms.Mallocs-mallocs0, ms.TotalAlloc-bytes0
	runtime.KeepAlive(c)
	if rep.out.finish != nil {
		rep.out.finish()
	}
	return rep, nil
}

// trafficSeed derives the j-th traffic seed of a run from -seed. Runs
// on different -seed values share none.
func trafficSeed(seed int64, j int) int64 { return seed*1000 + int64(j) }

// untraced runs the workload and reports the end-to-end metrics. After
// a warm-up pass on the first traffic seed, whose host figures are
// dropped, it runs whole rounds, one pass per traffic seed, until the
// span has passed and at least minRounds are done. wall_s averages each
// traffic seed's fastest measured pass, the other host figures average
// every measured pass, and the simulated figures average the traffic
// seeds.
func untraced(w scenario, seed int64, span time.Duration, tmp string) (*report, error) {
	start := time.Now()
	cfgs := make([]cluster.Config, w.traffic)
	for j := range cfgs {
		cfgs[j] = w.config(trafficSeed(seed, j), false)
	}
	groups := make([][]*repeat, w.traffic)
	pass := func(j int) error {
		r, err := runOnce(w, cfgs[j], tmp, hooks{})
		if err != nil {
			return err
		}
		groups[j] = append(groups[j], r)
		fmt.Fprintf(os.Stderr, "%s seed %d/%d: setup %.3fs wall %.3fs ops %d p50 %.4fms p999 %.4fms\n",
			w.name, seed, j, r.setup().Seconds(), r.wall.Seconds(), r.out.ops, r.out.p50, r.out.p999)
		return nil
	}
	if err := pass(0); err != nil {
		return nil, err
	}
	for rounds := 0; rounds < minRounds || time.Since(start) < span; rounds++ {
		for j := range cfgs {
			if err := pass(j); err != nil {
				return nil, err
			}
		}
	}
	rep := newReport(groups)
	var measured []*repeat
	var wall, x, p50, p999 float64
	for j, g := range groups {
		if j == 0 {
			g = g[1:]
		}
		measured = append(measured, g...)
		x += g[0].out.opsPerSimS
		p50 += g[0].out.p50
		p999 += g[0].out.p999
		fastest := g[0].wall
		for _, r := range g {
			fastest = min(fastest, r.wall)
		}
		wall += fastest.Seconds()
	}

	// Set-up is short next to the run phase, so extra set-ups (built
	// and dropped) bring its sample to minSetups.
	var setups []float64
	var setupTotal time.Duration
	for _, r := range measured {
		setups = append(setups, r.setup().Seconds())
		setupTotal += r.setup()
	}
	for len(setups) < minSetups || setupTotal < minSetupTime {
		_, r, err := setUp(cfgs[len(setups)%w.traffic])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		setups = append(setups, r.setup().Seconds())
		setupTotal += r.setup()
	}

	var heap, mallocs, bytes, ops float64
	for _, r := range measured {
		heap += float64(r.heap) / (1 << 20)
		mallocs += float64(r.mallocs)
		bytes += float64(r.bytes)
		ops += float64(r.out.ops)
	}
	n := float64(len(measured))
	k := float64(w.traffic)
	m := rep.Metrics
	m["setup_s"] = metric{medianOf(setups), "s"}
	m["wall_s"] = metric{wall / k, "s"}
	m["heap_mb"] = metric{heap / n, "MB"}
	m["allocs_per_op"] = metric{mallocs / ops, "allocs"}
	m["alloc_bytes_per_op"] = metric{bytes / ops, "B"}
	m["sim_ops_per_s"] = metric{x / k, "ops/s"}
	m["sim_p50_ms"] = metric{p50 / k, "ms"}
	m["sim_p999_ms"] = metric{p999 / k, "ms"}
	return rep, nil
}

// newReport totals the operation counts over every pass and decides
// correctness: no check violated, and all passes of one traffic seed
// agree exactly.
func newReport(groups [][]*repeat) *report {
	rep := &report{Correct: true, Metrics: map[string]metric{}}
	for j, g := range groups {
		want := g[0].out.digest()
		for i, r := range g {
			rep.Attempted += r.out.attempted
			rep.Failed += r.out.failed
			for _, v := range r.out.violations {
				rep.Correct = false
				fmt.Fprintf(os.Stderr, "check failed (traffic seed %d, pass %d): %v\n", j, i+1, v)
			}
			if got := r.out.digest(); got != want {
				rep.Correct = false
				fmt.Fprintf(os.Stderr, "traffic seed %d: pass %d differs from pass 1:\n  %s\n  %s\n", j, i+1, got, want)
			}
		}
	}
	return rep
}

func medianOf(v []float64) float64 {
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}
