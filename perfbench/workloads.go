package main

import (
	"fmt"
	"math"
	"os"

	"dynmds/internal/client"
	"dynmds/internal/cluster"
	"dynmds/internal/endure"
	"dynmds/internal/mds"
	"dynmds/internal/metrics"
	"dynmds/internal/sim"
	"dynmds/internal/snap"
	"dynmds/internal/workload"
)

// A scenario is one benchmark workload: it builds one cluster
// configuration from the seed and drives a run phase over it. small
// selects the reduced scale the tests use; the benchmark always runs
// full scale.
type scenario struct {
	name   string
	config func(seed int64, small bool) cluster.Config
	// run executes the run phase. The returned outcome carries the
	// simulated statistics and every check violation.
	run func(e env) *outcome
	// ownCluster marks a workload whose runner builds its own cluster
	// from env.cfg: set-up still builds one, to time it, and drops it.
	ownCluster bool
	// traffic is how many traffic seeds a run averages over: one seed's
	// balancer decisions and tail shift its figures by up to ±15%.
	traffic int
}

// env is what a run phase gets.
type env struct {
	c   *cluster.Cluster // built in set-up; nil for ownCluster workloads
	cfg cluster.Config   // the configuration, holding set-up's frozen namespace
	tmp string           // a private directory for files the run writes
	// held is called once, at the end of the run, while the run's
	// cluster is still live: it reads the heap that cluster holds.
	held func()
}

var scenarios = []scenario{
	{name: "shift-closed", config: shiftConfig, run: runShift, traffic: 3},
	{name: "hotspot-leases", config: hotspotConfig, run: runHotspot, traffic: 8},
	{name: "aging-1m", config: agingConfig, run: runAging, ownCluster: true, traffic: 5},
}

func findWorkload(name string) (scenario, error) {
	for _, w := range scenarios {
		if w.name == name {
			return w, nil
		}
	}
	return scenario{}, fmt.Errorf("unknown workload %q", name)
}

// outcome is one run phase's result. Every field except the host-time
// ones repeats exactly for a seed; digest fingerprints them.
type outcome struct {
	ops       uint64 // client-completed operations
	attempted uint64 // client ops issued + quiesces + fsck checks + restores
	failed    uint64 // client ops timed out or orphaned + failed quiesces, fscks, restores

	opsPerSimS   float64 // completions per simulated second in the measurement window
	p50, p999    float64 // client response time quantiles, ms
	events       uint64
	messages     uint64
	bytes        uint64
	maxLinkQueue int
	forwardFrac  float64
	hitRate      float64
	prefixFrac   float64
	migrations   int

	leaseHits, leaseGrants, leaseRecalls, fanouts uint64
	leaseHitFrac                                  float64 // lease hits per read arrival
	popBytesPerClient                             float64

	tombstones   int
	liveInodes   int
	lazyMissRate float64
	snapBytes    int64
	drift        float64
	endureDigest string

	// finish, when set, completes the outcome after the run phase and
	// its measurements: work the run phase's figures must not include.
	finish func()

	violations []error
}

func (o *outcome) violate(err error) {
	if err != nil {
		o.violations = append(o.violations, err)
	}
}

// digest fingerprints the simulated statistics; in-process repeats of a
// seed, traced or not, must agree on it.
func (o *outcome) digest() string {
	return fmt.Sprintf("ops=%d att=%d fail=%d x=%x p50=%x p999=%x ev=%d msg=%d b=%d q=%d fwd=%x hit=%x pre=%x mig=%d lease=%d/%d/%d/%d pop=%x tomb=%d live=%d lazy=%x snap=%d drift=%x end=%s",
		o.ops, o.attempted, o.failed, math.Float64bits(o.opsPerSimS),
		math.Float64bits(o.p50), math.Float64bits(o.p999), o.events,
		o.messages, o.bytes, o.maxLinkQueue, math.Float64bits(o.forwardFrac),
		math.Float64bits(o.hitRate), math.Float64bits(o.prefixFrac), o.migrations,
		o.leaseHits, o.leaseGrants, o.leaseRecalls, o.fanouts,
		math.Float64bits(o.popBytesPerClient), o.tombstones, o.liveInodes,
		math.Float64bits(o.lazyMissRate), o.snapBytes, math.Float64bits(o.drift),
		o.endureDigest)
}

// fillCommon copies the counters every workload reports from a result.
func (o *outcome) fillCommon(r *cluster.Result) {
	o.messages = r.Net.Messages
	o.bytes = r.Net.Bytes
	o.maxLinkQueue = r.Net.MaxQueueDepth
	o.forwardFrac = r.ForwardFrac
	o.hitRate = r.HitRate
	o.prefixFrac = r.PrefixFrac
	o.migrations = r.Migrations
	o.leaseHits = r.LeaseHits
	o.leaseGrants = r.LeaseGrants
	o.leaseRecalls = r.LeaseRecalls
	o.fanouts = r.ReplicaFanouts
}

// ---------------------------------------------------------------------
// shift-closed: the paper's Figure 5/6 run at full scale.

func shiftConfig(seed int64, small bool) cluster.Config {
	cfg := cluster.Default()
	cfg.Seed = seed
	cfg.Strategy = cluster.StratDynamic
	cfg.NumMDS = 6
	cfg.ClientsPerMDS = 30
	cfg.FS.Users = 25 * cfg.NumMDS
	cfg.MDS.CacheCapacity = 2500
	cfg.Client.ThinkMean = 15 * sim.Millisecond
	cfg.Client.KnownCap = 512
	cfg.Workload.Kind = cluster.WorkShift
	cfg.Workload.ShiftFraction = 0.5
	cfg.Workload.ShiftTime = 25 * sim.Second
	cfg.Duration = 80 * sim.Second
	cfg.Warmup = 10 * sim.Second
	b := *cfg.Balancer
	b.Interval = 2 * sim.Second
	cfg.Balancer = &b
	if small {
		cfg.ClientsPerMDS = 10
		cfg.Workload.ShiftTime = 6 * sim.Second
		cfg.Duration = 16 * sim.Second
		cfg.Warmup = 3 * sim.Second
	}
	return cfg
}

func runShift(e env) *outcome {
	c, cfg := e.c, e.cfg
	var inWindow uint64
	countWindow := func(now sim.Time) {
		if now >= cfg.Warmup {
			inWindow++
		}
	}
	for _, cl := range c.Clients {
		cl.OnComplete = countWindow
	}
	r := c.Run()
	o := &outcome{events: c.ExecutedEvents()}
	o.fillCommon(r)
	o.ops = r.Completed
	o.opsPerSimS = float64(inWindow) / (cfg.Duration - cfg.Warmup).Seconds()
	o.p50, o.p999 = quantilesMS(c.LatH)

	var n, sum float64
	for _, cl := range c.Clients {
		k := float64(cl.Stats.Latency.N())
		n += k
		sum += k * cl.Stats.Latency.Mean()
	}
	o.violate(checkOutstanding(r.Issued, r.Completed, len(c.Clients)))
	o.violate(checkLittle(len(c.Clients), float64(r.Completed)/cfg.Duration.Seconds(),
		sum/n, cfg.Client.ThinkMean.Seconds()))

	c.Drain()
	var issued, completed, timedOut uint64
	for _, cl := range c.Clients {
		issued += cl.Stats.Issued
		completed += cl.Stats.Completed
		timedOut += cl.Stats.TimedOut
	}
	o.attempted = issued
	o.failed = issued - completed
	o.violate(checkDrained(issued, completed, timedOut))
	o.violate(checkFabric(c.Fab.Summary()))
	e.held()
	return o
}

// ---------------------------------------------------------------------
// hotspot-leases: an open loop with leases and fan-out under a crowd.

// hotspotTarget is the home directory the crowd act aims at.
const hotspotTarget = "/home/u0000"

func hotspotConfig(seed int64, small bool) cluster.Config {
	cfg := cluster.Default()
	cfg.Seed = seed
	cfg.Strategy = cluster.StratDynamic
	cfg.NumMDS = 8
	cfg.FS.Users = 40
	cfg.FS.Projects = 8
	cfg.MDS = mds.DefaultConfig(2500)
	cfg.SeriesBucket = 500 * sim.Millisecond
	cfg.Lease.Enabled = true
	cfg.Lease.Fanout = true
	cfg.OpenLoop = &client.PopulationConfig{
		Clients: 20000,
		Rate:    0.2,
		Tenant:  workload.TenantConfig{Tenants: 64, FileSkew: 0.8},
	}
	cfg.Warmup = 2 * sim.Second
	cfg.Duration = 60 * sim.Second
	cfg.Acts = []cluster.ActConfig{
		{Name: "calm", From: 2 * sim.Second, To: 20 * sim.Second, FileSkew: -1},
		{Name: "crowd", From: 20 * sim.Second, To: 40 * sim.Second, RateMul: 3,
			MixStat: 90, MixReaddir: 10, Hotspot: hotspotTarget, HotFrac: 0.7, FileSkew: -1},
		{Name: "churn", From: 40 * sim.Second, To: 60 * sim.Second,
			MixStat: 40, MixChmod: 30, MixCreate: 30, FileSkew: -1},
	}
	if small {
		cfg.OpenLoop.Clients = 4000
		cfg.Duration = 12 * sim.Second
		cfg.Acts[0].To = 5 * sim.Second
		cfg.Acts[1].From, cfg.Acts[1].To = 5*sim.Second, 9*sim.Second
		cfg.Acts[2].From, cfg.Acts[2].To = 9*sim.Second, 12*sim.Second
	}
	return cfg
}

func runHotspot(e env) *outcome {
	c, cfg := e.c, e.cfg
	// StartEndure arms an open-loop cluster exactly as Run does; stepping
	// to the warm-up edge reads the completions the window excludes.
	c.StartEndure()
	c.RunTo(cfg.Warmup)
	warm := c.Pop.Completed()
	c.RunTo(cfg.Duration)
	r := c.Collect()
	o := &outcome{events: c.ExecutedEvents()}
	o.fillCommon(r)
	o.ops = r.Completed
	o.opsPerSimS = float64(r.Completed-warm) / (cfg.Duration - cfg.Warmup).Seconds()
	o.p50, o.p999 = quantilesMS(popLatency(c))
	o.leaseHitFrac = float64(r.LeaseHits) / expectedReads(cfg, r)
	o.popBytesPerClient = float64(r.PopFootprint) / float64(r.Clients)

	o.violate(checkArrivals(r.Issued, hotspotExpected(cfg)))

	c.Drain()
	r = c.Collect()
	o.attempted = r.Issued
	o.failed = r.Issued - r.Completed // timed out or orphaned
	o.violate(checkDrained(r.Issued, r.Completed, r.TimedOut))
	o.violate(checkRecalls(r.LeaseRecalls, r.LeaseRecalled, r.LeaseAcks))
	o.violate(checkFabric(r.Net))
	e.held()
	return o
}

// expectedReads is the read share (stat + readdir) of the arrivals, per
// the configured base and act mixes weighted by their arrival counts.
// Lease hits can only serve reads, so this is the hit fraction's base.
func expectedReads(cfg cluster.Config, r *cluster.Result) float64 {
	pc := cfg.OpenLoop
	readShare := func(st, rd, ch, cr, rn, ul float64) float64 {
		return (st + rd) / (st + rd + ch + cr + rn + ul)
	}
	base := readShare(pc.MixStat, pc.MixReaddir, pc.MixChmod, pc.MixCreate, pc.MixRename, pc.MixUnlink)
	if pc.MixStat+pc.MixReaddir+pc.MixChmod+pc.MixCreate+pc.MixRename+pc.MixUnlink == 0 {
		base = 0.9 // the population's default mix: stat 80, readdir 10, chmod 8, create 2
	}
	inActs := uint64(0)
	reads := 0.0
	for i, a := range r.Acts {
		ac := cfg.Acts[i]
		share := base
		if ac.MixStat+ac.MixReaddir+ac.MixChmod+ac.MixCreate+ac.MixRename+ac.MixUnlink > 0 {
			share = readShare(ac.MixStat, ac.MixReaddir, ac.MixChmod, ac.MixCreate, ac.MixRename, ac.MixUnlink)
		}
		reads += share * float64(a.Issued)
		inActs += a.Issued
	}
	return reads + base*float64(r.Issued-inActs)
}

// hotspotExpected is the mean arrival count the configuration implies:
// every client's base rate scaled by the act multipliers in force.
func hotspotExpected(cfg cluster.Config) float64 {
	var segs []rateSegment
	at := sim.Time(0)
	for _, a := range cfg.Acts {
		if a.From > at {
			segs = append(segs, rateSegment{from: at.Seconds(), to: a.From.Seconds(), mul: 1})
		}
		mul := a.RateMul
		if mul <= 0 {
			mul = 1
		}
		segs = append(segs, rateSegment{from: a.From.Seconds(), to: a.To.Seconds(), mul: mul})
		at = a.To
	}
	if at < cfg.Duration {
		segs = append(segs, rateSegment{from: at.Seconds(), to: cfg.Duration.Seconds(), mul: 1})
	}
	pc := cfg.OpenLoop
	return float64(pc.Clients) * clientArrivals(pc.Rate, wheelTick.Seconds(), segs)
}

// ---------------------------------------------------------------------
// aging-1m: a million flyweight clients under create/rename/unlink churn,
// run through the endurance protocol, then restored from a mid-run
// checkpoint and run to the end again.

const (
	agingCheckpointEvery = 60 * sim.Second
	agingRestoreFrom     = 1 // 0-based checkpoint the restored run resumes from
)

func agingConfig(seed int64, small bool) cluster.Config {
	cfg := cluster.Default()
	cfg.Seed = seed
	cfg.NumMDS = 4
	cfg.FS.Users = 60
	cfg.Warmup = sim.Second
	cfg.Duration = 4 * agingCheckpointEvery
	clients := 1_000_000
	if small {
		clients = 20_000
		cfg.Duration = 3 * agingCheckpointEvery
	}
	cfg.OpenLoop = &client.PopulationConfig{Clients: clients, Rate: 600 / float64(clients)}
	opt := endure.Options{Cluster: cfg, Every: agingCheckpointEvery}
	// Normalize applies the endurance plane's churn mix and unlink
	// reserve; a valid config cannot fail it.
	if err := opt.Normalize(); err != nil {
		panic(err)
	}
	return opt.Cluster
}

func runAging(e env) *outcome {
	cfg := e.cfg
	o := &outcome{}
	instants := endure.Instants(agingCheckpointEvery, cfg.Duration)
	// Every checkpoint quiesces and runs simfsck, in the uninterrupted
	// run and again in the restored one; the restore itself is one more.
	restored := len(instants) - agingRestoreFrom - 1
	o.attempted = uint64(2*(len(instants)+restored) + 1)
	opt := endure.Options{Cluster: cfg, Every: agingCheckpointEvery, Dir: e.tmp}
	run := opt
	run.OnRow = func(r endure.Row) {
		if r.Index == len(instants)-1 {
			e.held()
		}
	}
	res, err := endure.Run(run)
	if err != nil {
		o.failed++
		o.violate(err)
		return o
	}
	r := res.Cluster
	o.fillCommon(r)
	o.ops = r.Completed
	serving := cfg.Duration - sim.Time(len(instants)-1)*cluster.QuiesceDrain
	// The window covers the whole serving time: arrivals only pause
	// inside quiesces, and the pause is excluded.
	o.opsPerSimS = float64(r.Completed) / serving.Seconds()
	o.popBytesPerClient = float64(r.PopFootprint) / float64(r.Clients)
	last := res.Rows[len(res.Rows)-1]
	o.tombstones = last.Tombstones
	o.liveInodes = last.LiveInodes
	o.lazyMissRate = last.LazyMissRate
	for _, row := range res.Rows {
		fi, err := os.Stat(row.Path)
		if err != nil {
			o.violate(err)
			continue
		}
		o.snapBytes += fi.Size()
	}
	o.endureDigest = res.Digest
	o.drift = res.Drift()
	o.attempted += r.Issued
	o.failed += r.Issued - r.Completed
	o.violate(checkDrained(r.Issued, r.Completed, r.TimedOut))
	pc := cfg.OpenLoop
	o.violate(checkArrivals(r.Issued,
		float64(pc.Clients)*clientArrivals(pc.Rate, wheelTick.Seconds(),
			[]rateSegment{{from: 0, to: serving.Seconds(), mul: 1}})))

	again, err := endure.Restore(opt, res.Rows[agingRestoreFrom].Path)
	if err == nil {
		err = checkDigest(again.Digest, res.Digest)
	}
	if err != nil {
		o.failed++
		o.violate(fmt.Errorf("restore from checkpoint %d: %w", agingRestoreFrom, err))
	}
	o.finish = func() {
		lat, err := checkpointLatency(cfg, last.Path)
		if err != nil {
			o.violate(err)
			return
		}
		o.p50, o.p999 = quantilesMS(lat)
	}
	return o
}

// checkpointLatency reads the client response-time histogram back from
// a checkpoint file. endure.Run keeps its cluster to itself, and the
// cluster.Result it returns holds only the histogram's bucket bounds;
// the run's final checkpoint holds the whole histogram. The file's
// leading section is the endurance runner's header, which a cluster
// restore skips.
func checkpointLatency(cfg cluster.Config, path string) (*metrics.LatHist, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rd, err := snap.NewReader(data)
	if err != nil {
		return nil, err
	}
	if _, err := rd.Section(); err != nil {
		return nil, err
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := c.RestoreCheckpoint(rd); err != nil {
		return nil, fmt.Errorf("reading %s back: %w", path, err)
	}
	return popLatency(c), nil
}

// ---------------------------------------------------------------------

// wheelTick is the population's default timer-wheel granularity.
const wheelTick = sim.Millisecond

// popLatency is the client-side response-time histogram of an open-loop
// run: replies plus lease-served hits (which complete in zero time).
func popLatency(c *cluster.Cluster) *metrics.LatHist {
	h := metrics.NewLatHist()
	c.Pop.Latency(h)
	return h
}

// quantilesMS returns the p50 and p99.9 response times in milliseconds,
// interpolated linearly inside the histogram bucket that holds each
// rank (the bucket bound alone would repeat across seeds).
func quantilesMS(h *metrics.LatHist) (p50, p999 float64) {
	return interpQuantile(h, 0.5) / 1e3, interpQuantile(h, 0.999) / 1e3
}

// interpQuantile returns the q-quantile in microseconds.
func interpQuantile(h *metrics.LatHist, q float64) float64 {
	rank := q * float64(h.N())
	var cum float64
	var at float64
	h.State(func(idx int, count uint64) {
		if cum >= rank || count == 0 {
			cum += float64(count)
			return
		}
		if cum+float64(count) >= rank {
			lo, hi := bucketRange(idx)
			at = lo + (hi-lo)*(rank-cum)/float64(count)
		}
		cum += float64(count)
	})
	return at
}

// bucketRange returns the [lo, hi] microsecond span of a histogram
// bucket, read back through the histogram's own quantile rule.
func bucketRange(idx int) (lo, hi float64) {
	top := func(i int) float64 {
		var h metrics.LatHist
		h.SetBucket(i, 1)
		return float64(h.Quantile(1))
	}
	hi = top(idx)
	if idx > 0 {
		lo = top(idx-1) + 1
	}
	return lo, hi + 1
}
