package main

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"dynmds/internal/cluster"
	"dynmds/internal/metrics"
	"dynmds/internal/net"
	"dynmds/internal/sim"
)

// runSmall sets up and runs a workload at the reduced test scale.
func runSmall(t *testing.T, name string, seed int64) (*cluster.Cluster, *outcome) {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := setUp(w.config(seed, true))
	if err != nil {
		t.Fatal(err)
	}
	e := env{c: c, cfg: c.Cfg, tmp: t.TempDir(), held: func() {}}
	if w.ownCluster {
		e.c = nil
	}
	o := w.run(e)
	if o.finish != nil {
		o.finish()
	}
	return e.c, o
}

// Every workload passes all of its checks at reduced scale, loses no
// operation, and repeats exactly.
func TestWorkloadsPassChecksSmall(t *testing.T) {
	for _, w := range scenarios {
		t.Run(w.name, func(t *testing.T) {
			_, a := runSmall(t, w.name, 7)
			_, b := runSmall(t, w.name, 7)
			for _, v := range a.violations {
				t.Errorf("check failed: %v", v)
			}
			if a.failed != 0 || a.ops == 0 || a.attempted < a.ops {
				t.Errorf("ops %d, attempted %d, failed %d", a.ops, a.attempted, a.failed)
			}
			if a.digest() != b.digest() {
				t.Errorf("repeat differs:\n%s\n%s", a.digest(), b.digest())
			}
			if _, c := runSmall(t, w.name, 8); c.digest() == a.digest() {
				t.Errorf("seeds 7 and 8 produced identical statistics")
			}
		})
	}
}

// Little's law holds for the closed loop and rejects a doubled think time.
func TestLittleRejectsDoubledThinkTime(t *testing.T) {
	c, _ := runSmall(t, "shift-closed", 5)
	var n, sum, completed float64
	for _, cl := range c.Clients {
		k := float64(cl.Stats.Latency.N())
		n += k
		sum += k * cl.Stats.Latency.Mean()
		completed += float64(cl.Stats.Completed)
	}
	x := completed / c.Cfg.Duration.Seconds()
	z := c.Cfg.Client.ThinkMean.Seconds()
	if err := checkLittle(len(c.Clients), x, sum/n, z); err != nil {
		t.Fatalf("true think time rejected: %v", err)
	}
	if checkLittle(len(c.Clients), x, sum/n, 2*z) == nil {
		t.Error("doubled think time accepted")
	}
}

// A restored run's digest must match its own seed's, not another's.
func TestDigestRejectsOtherSeed(t *testing.T) {
	_, a := runSmall(t, "aging-1m", 1)
	_, b := runSmall(t, "aging-1m", 2)
	if err := checkDigest(a.endureDigest, a.endureDigest); err != nil {
		t.Fatal(err)
	}
	if checkDigest(a.endureDigest, b.endureDigest) == nil {
		t.Error("digest from another seed accepted")
	}
}

// The arrival count matches the configured rates and rejects a
// mis-stated one.
func TestArrivalsRejectMisstatedRate(t *testing.T) {
	c, _ := runSmall(t, "hotspot-leases", 4)
	issued := c.Pop.Issued()
	cfg := c.Cfg
	if err := checkArrivals(issued, hotspotExpected(cfg)); err != nil {
		t.Fatalf("true rate rejected: %v", err)
	}
	pc := *cfg.OpenLoop
	pc.Rate *= 1.1
	cfg.OpenLoop = &pc
	if checkArrivals(issued, hotspotExpected(cfg)) == nil {
		t.Error("rate mis-stated by 10% accepted")
	}
	cfg = c.Cfg
	cfg.Acts = append([]cluster.ActConfig(nil), cfg.Acts...)
	cfg.Acts[1].RateMul = 2
	if checkArrivals(issued, hotspotExpected(cfg)) == nil {
		t.Error("crowd multiplier mis-stated as x2 accepted")
	}
}

func TestCountChecksRejectPlantedInputs(t *testing.T) {
	if checkOutstanding(100, 90, 10) != nil || checkOutstanding(100, 89, 10) == nil || checkOutstanding(90, 100, 10) == nil {
		t.Error("checkOutstanding")
	}
	if checkDrained(10, 8, 2) != nil || checkDrained(10, 9, 0) == nil {
		t.Error("checkDrained")
	}
	if checkRecalls(5, 5, 5) != nil || checkRecalls(5, 5, 4) == nil || checkRecalls(5, 4, 4) == nil {
		t.Error("checkRecalls")
	}
	var s net.Stats
	s.PerClass[1] = net.ClassStats{Sent: 7, Delivered: 7}
	if err := checkFabric(s); err != nil {
		t.Error(err)
	}
	s.PerClass[2] = net.ClassStats{Sent: 7, Delivered: 6}
	if checkFabric(s) == nil {
		t.Error("undelivered message accepted")
	}
}

// clientArrivals against a direct simulation of the population's rule:
// each exponential inter-arrival is drawn at the rate in force at the
// previous arrival and rounded up to the wheel tick.
func TestClientArrivalsMatchesSimulation(t *testing.T) {
	const base, tick = 0.5, 0.001
	segs := []rateSegment{{0, 4, 1}, {4, 9, 3}, {9, 15, 1}}
	if got, want := clientArrivals(base, 0, segs[:1]), base*4; math.Abs(got-want) > 1e-9 {
		t.Fatalf("constant rate: %v, want %v", got, want)
	}
	mul := func(t float64) float64 {
		for _, s := range segs {
			if t < s.to {
				return s.mul
			}
		}
		return 1
	}
	rng := rand.New(rand.NewSource(1))
	const clients = 40000
	count := 0
	for i := 0; i < clients; i++ {
		now := 0.0
		for {
			d := rng.ExpFloat64() / (base * mul(now))
			now += math.Max(math.Ceil(d/tick), 1) * tick
			if now > 15 {
				break
			}
			count++
		}
	}
	want := clients * clientArrivals(base, tick, segs)
	if math.Abs(float64(count)-want) > 4*math.Sqrt(want) {
		t.Errorf("simulated %d arrivals, model %.0f", count, want)
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []frame
		want  string
	}{
		{[]frame{{"runtime.mallocgc", ""}, {"dynmds/internal/namespace.(*Inode).Ancestors", "inode.go"},
			{"dynmds/internal/cache.(*Cache).InsertPath", "cache.go"}}, "namespace"},
		{[]frame{{"runtime.mapassign", ""}, {"dynmds/internal/cache.(*Cache).Insert", "cache.go"}}, "cache"},
		{[]frame{{"runtime.gcBgMarkWorker", ""}}, "runtime"},
		{[]frame{{"dynmds/internal/client.(*HintTable).Put", "/x/hints.go"},
			{"dynmds/internal/client.(*Client).OnReply", "/x/client.go"}}, "client.closed"},
		{[]frame{{"dynmds/internal/client.(*HintTable).Get", "/x/hints.go"},
			{"dynmds/internal/client.(*popShard).arrive", "/x/population.go"}}, "client.population"},
		{[]frame{{"dynmds/internal/fault.(*Plane).Check", "plane.go"}}, "other"},
		{[]frame{{"main.runShift.func1", "workloads.go"}, {"dynmds/internal/client.(*Client).OnReply", "client.go"}}, "other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// The timed calls name the program's methods, so that a rename fails
// here instead of reading 0.
func TestTimedCallsNameMethods(t *testing.T) {
	for name, fn := range map[string]any{
		"endure.quiesce_s": (*cluster.Cluster).Quiesce,
		"snap.encode_s":    (*cluster.Cluster).CheckpointTo,
		"snap.decode_s":    (*cluster.Cluster).RestoreCheckpoint,
	} {
		if got := runtime.FuncForPC(reflect.ValueOf(fn).Pointer()).Name(); timedCalls[name] != got {
			t.Errorf("%s names %q, the method is %q", name, timedCalls[name], got)
		}
	}
	if len(timedCalls) != 3 {
		t.Errorf("%d timed calls, want 3", len(timedCalls))
	}
}

func TestInterpQuantile(t *testing.T) {
	h := metrics.NewLatHist()
	for us := 1; us <= 10000; us++ {
		h.Observe(sim.Time(us))
	}
	// Interpolation assumes observations spread evenly over their
	// bucket, so it is exact only to the bucket width: 1/16 of an octave.
	for _, q := range []float64{0.5, 0.999} {
		got, want := interpQuantile(h, q), q*10000
		if math.Abs(got-want)/want > 1.0/16 {
			t.Errorf("q%.3f = %.1fµs, want %.1f", q, got, want)
		}
	}
	if a, b := interpQuantile(h, 0.5), interpQuantile(h, 0.501); !(a < b) {
		t.Errorf("quantiles not increasing: %v, %v", a, b)
	}
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	x := 1.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		x = math.Sqrt(x + 1)
	}
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range samples {
		total += s.nanos
		if len(s.stack) == 0 {
			t.Fatal("sample without a stack")
		}
	}
	if total <= 0 || x == 0 {
		t.Errorf("%d samples, %dns", len(samples), total)
	}
}
