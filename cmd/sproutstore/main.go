// Command sproutstore runs the emulated Ceph-like object store, either as a
// TCP server speaking the multiplexed binary protocol, as a load-generating
// client against such a server, as a self-contained demo that starts a
// server, writes objects through erasure-coded pools and reads them back
// through both the LRU cache tier and the functional-caching equivalent
// pools, or as a live Sprout controller serving reads over the emulated
// OSDs with hedged parallel fetches and the auto-replanner.
//
// Usage:
//
//	sproutstore -mode serve -addr 127.0.0.1:7440 -workers 16 -inflight 512
//	sproutstore -mode serve -chaos "2:lat=30ms;2:err=0.2;5:stall=1s;7:drop"
//	sproutstore -mode load -target 127.0.0.1:7440 -clients 64 -conns 4
//	sproutstore -mode demo
//	sproutstore -mode ctrl -clients 8 -duration 3s -hedge-delay 10ms -replan-every 500ms
//	sproutstore -mode ctrl -duration 3s -fail "500ms:2,5" -recover "2s:2" -lose
//	sproutstore -mode ctrl -controllers 4 -clients 32 -duration 3s
//	sproutstore -mode serve -controllers 4   # shard endpoints alongside the store
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sprout/internal/core"
	"sprout/internal/erasure"
	"sprout/internal/objstore"
	"sprout/internal/obs"
	"sprout/internal/optimizer"
	"sprout/internal/queue"
	"sprout/internal/repair"
	"sprout/internal/router"
	"sprout/internal/tick"
	"sprout/internal/transport"
	"sprout/internal/workload"
)

func main() {
	var (
		mode    = flag.String("mode", "demo", "serve, load, demo, or ctrl")
		addr    = flag.String("addr", "127.0.0.1:0", "listen address in serve mode")
		osds    = flag.Int("osds", 12, "number of OSDs")
		objects = flag.Int("objects", 20, "demo/ctrl: objects written into the pools")
		objSize = flag.Int("size", 1<<20, "demo/ctrl: object size in bytes")

		// Server admission control and fault injection.
		workers   = flag.Int("workers", 0, "serve: handler pool size (0 = default)")
		inflight  = flag.Int("inflight", 0, "serve: max queued requests before overload responses (0 = default)")
		chaosSpec = flag.String("chaos", "", "serve: per-OSD fault rules, e.g. \"2:lat=30ms;2:err=0.2;5:stall=1s;7:drop\"")

		// Client pool and load generation.
		target    = flag.String("target", "", "load: server address to connect to")
		clients   = flag.Int("clients", 16, "load/ctrl: concurrent client goroutines")
		conns     = flag.Int("conns", 4, "load: pooled TCP connections")
		duration  = flag.Duration("duration", 3*time.Second, "load/ctrl: how long to drive requests")
		writeFrac = flag.Float64("writefrac", 0, "load: fraction of requests that are striped writes (0..1)")

		// Controller serving path (ctrl mode).
		controllers = flag.Int("controllers", 1, "ctrl/serve: shard controllers behind the consistent-hash router (1 = unsharded)")
		cacheChunks = flag.Int("cache", 0, "ctrl: functional-cache capacity in chunks (0 = 3 per object)")
		hedgeDelay  = flag.Duration("hedge-delay", 10*time.Millisecond, "ctrl: hedge timer for straggling fetches (0 disables)")
		hedgeExtra  = flag.Int("hedge-extra", 1, "ctrl: max extra hedged fetches per read")
		fillWorkers = flag.Int("fill-workers", 2, "ctrl: background cache-fill workers")
		replanEvery = flag.Duration("replan-every", 500*time.Millisecond, "ctrl: auto-replanner tick (0 disables)")
		replanTh    = flag.Float64("replan-threshold", 0.5, "ctrl: relative rate drift that triggers a replan")

		// Failure injection and repair (ctrl mode).
		failSpec      = flag.String("fail", "", "ctrl: OSD failures under load, e.g. \"500ms:2,5;1s:7\" (after 500ms fail OSDs 2 and 5, after 1s fail 7)")
		recoverSpec   = flag.String("recover", "", "ctrl: OSD recoveries, same format as -fail")
		loseChunks    = flag.Bool("lose", true, "ctrl: failed OSDs lose their chunks (forces reconstruction)")
		repairWorkers = flag.Int("repair-workers", 2, "ctrl: repair worker pool size")
		repairScan    = flag.Duration("repair-scan", 100*time.Millisecond, "ctrl: repair degradation-scan interval")

		// Observability.
		metricsAddr = flag.String("metrics", "", "serve Prometheus text metrics at this address (e.g. :9090); empty disables")
	)
	flag.Parse()

	if *mode == "load" {
		if *target == "" {
			fail(fmt.Errorf("load mode needs -target host:port"))
		}
		if *writeFrac < 0 || *writeFrac > 1 {
			fail(fmt.Errorf("-writefrac %v outside [0, 1]", *writeFrac))
		}
		runLoad(*target, *clients, *conns, *duration, *writeFrac)
		return
	}

	cluster, err := objstore.NewCluster(objstore.ClusterConfig{
		NumOSDs:            *osds,
		Services:           []queue.Dist{queue.ShiftedExponential{Shift: 0.002, Rate: 500}},
		RefChunkSize:       int64(*objSize / 4),
		CacheService:       queue.Deterministic{Value: 0.0005},
		CacheCapacityBytes: int64(*objects) * int64(*objSize) / 4,
		Seed:               1,
	})
	if err != nil {
		fail(err)
	}
	if _, err := cluster.CreatePool("ec-7-4", 7, 4); err != nil {
		fail(err)
	}
	pools, err := cluster.CreateEquivalentPools("eq", 7, 4)
	if err != nil {
		fail(err)
	}

	switch *mode {
	case "serve":
		chaos, err := parseChaosRules(*chaosSpec)
		if err != nil {
			fail(fmt.Errorf("-chaos: %w", err))
		}
		srv := transport.NewServerWithConfig(cluster, transport.ServerConfig{
			Workers:     *workers,
			MaxInFlight: *inflight,
			Chaos:       chaos,
			// Clients that die between BeginPut and CommitObject must not
			// leak staged chunks on a long-running server.
			StagedPutTTL: time.Minute,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		bound, err := srv.Listen(*addr)
		if err != nil {
			fail(err)
		}
		if *metricsAddr != "" {
			src := obs.Sources{
				TransportServer: srv.Stats,
				OSDHealth:       cluster.Health,
				Runtime:         true,
				Pools:           []obs.PoolSource{transport.FrameArena(), erasure.StripeScratchPool()},
				Rings:           []obs.RingSource{{Name: "transport_work", Stats: srv.WorkQueueStats}},
			}
			if chaos != nil {
				src.Chaos = chaos.Stats
			}
			serveMetrics(*metricsAddr, src)
		}
		fmt.Printf("sproutstore: serving object store on %s (pools: ec-7-4, eq-0..eq-3)\n", bound)
		if chaos != nil {
			fmt.Printf("sproutstore: chaos rules active: %s\n", *chaosSpec)
		}
		if *controllers > 1 {
			rt, eps, err := serveShardEndpoints(cluster, *controllers, *objects, *objSize, *workers)
			if err != nil {
				fail(err)
			}
			defer rt.Close()
			for i, ep := range eps {
				fmt.Printf("sproutstore: shard shard-%d serving controller ops on %s\n", i, ep.Addr())
				defer ep.Close()
			}
		}
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		<-sig
		_ = srv.Close()
		s := srv.Stats()
		fmt.Printf("sproutstore: served %d requests, %d frames in / %d out, %d KiB in / %d out, %d overload rejections, %d decode errors\n",
			s.Requests, s.FramesReceived, s.FramesSent, s.BytesReceived>>10, s.BytesSent>>10,
			s.OverloadRejections, s.DecodeErrors)
		if chaos != nil {
			cs := chaos.Stats()
			fmt.Printf("sproutstore: chaos injected %d delays, %d errors, %d stalls; dropped %d requests / %d replies\n",
				cs.DelaysInjected, cs.ErrorsInjected, cs.Stalls, cs.RequestsDropped, cs.RepliesDropped)
		}
	case "demo":
		runDemo(cluster, pools, *objects, *objSize)
	case "ctrl":
		failEvents, err := parseOSDEvents(*failSpec)
		if err != nil {
			fail(fmt.Errorf("-fail: %w", err))
		}
		recoverEvents, err := parseOSDEvents(*recoverSpec)
		if err != nil {
			fail(fmt.Errorf("-recover: %w", err))
		}
		runCtrl(cluster, ctrlConfig{
			osds:          *osds,
			controllers:   *controllers,
			objects:       *objects,
			objSize:       *objSize,
			cacheChunks:   *cacheChunks,
			clients:       *clients,
			duration:      *duration,
			metricsAddr:   *metricsAddr,
			failures:      failEvents,
			recoveries:    recoverEvents,
			loseChunks:    *loseChunks,
			repairWorkers: *repairWorkers,
			repairScan:    *repairScan,
			serve: core.ServeOptions{
				HedgeDelay:      *hedgeDelay,
				HedgeExtra:      *hedgeExtra,
				FillWorkers:     *fillWorkers,
				ReplanInterval:  *replanEvery,
				ReplanThreshold: *replanTh,
				Logf: func(format string, args ...any) {
					fmt.Fprintf(os.Stderr, format+"\n", args...)
				},
			},
		})
	default:
		fail(fmt.Errorf("unknown mode %q", *mode))
	}
}

// ctrlConfig gathers the knobs of the controller serving mode.
type ctrlConfig struct {
	osds        int
	controllers int
	objects     int
	objSize     int
	cacheChunks int
	clients     int
	duration    time.Duration
	metricsAddr string
	serve       core.ServeOptions

	failures      []osdEvent
	recoveries    []osdEvent
	loseChunks    bool
	repairWorkers int
	repairScan    time.Duration
}

// osdEvent schedules a membership transition for a set of OSDs at an offset
// into the serving window.
type osdEvent struct {
	after time.Duration
	ids   []int
}

// parseOSDEvents parses "500ms:2,5;1s:7" into scheduled OSD events.
func parseOSDEvents(spec string) ([]osdEvent, error) {
	if spec == "" {
		return nil, nil
	}
	var out []osdEvent
	for _, part := range strings.Split(spec, ";") {
		after, idsStr, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("event %q: want duration:id[,id...]", part)
		}
		d, err := time.ParseDuration(after)
		if err != nil {
			return nil, fmt.Errorf("event %q: %w", part, err)
		}
		var ids []int
		for _, s := range strings.Split(idsStr, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return nil, fmt.Errorf("event %q: %w", part, err)
			}
			ids = append(ids, id)
		}
		out = append(out, osdEvent{after: d, ids: ids})
	}
	return out, nil
}

// parseChaosRules parses "2:lat=30ms;2:err=0.2;5:stall=1s;7:drop" into a
// chaos harness with one merged rule per OSD. Returns nil for an empty spec
// so an unfaulted server carries no chaos layer at all. The returned harness
// stays runtime-controllable: callers embedding sproutstore can keep the
// pointer and SetRule/ClearRule while the server runs.
func parseChaosRules(spec string) (*transport.Chaos, error) {
	if spec == "" {
		return nil, nil
	}
	rules := map[int]transport.ChaosRule{}
	for _, part := range strings.Split(spec, ";") {
		idStr, what, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("rule %q: want osd:kind[=value]", part)
		}
		id, err := strconv.Atoi(strings.TrimSpace(idStr))
		if err != nil {
			return nil, fmt.Errorf("rule %q: %w", part, err)
		}
		rule := rules[id]
		kind, val, _ := strings.Cut(what, "=")
		switch kind {
		case "lat":
			if rule.Latency, err = time.ParseDuration(val); err != nil {
				return nil, fmt.Errorf("rule %q: %w", part, err)
			}
		case "jitter":
			if rule.Jitter, err = time.ParseDuration(val); err != nil {
				return nil, fmt.Errorf("rule %q: %w", part, err)
			}
		case "stall":
			if rule.Stall, err = time.ParseDuration(val); err != nil {
				return nil, fmt.Errorf("rule %q: %w", part, err)
			}
		case "err":
			if rule.ErrorRate, err = strconv.ParseFloat(val, 64); err != nil {
				return nil, fmt.Errorf("rule %q: %w", part, err)
			}
			if rule.ErrorRate < 0 || rule.ErrorRate > 1 {
				return nil, fmt.Errorf("rule %q: error rate outside [0, 1]", part)
			}
		case "drop":
			rule.DropRequests = true
		case "dropreply":
			rule.DropReplies = true
		default:
			return nil, fmt.Errorf("rule %q: unknown kind %q (want lat, jitter, stall, err, drop, dropreply)", part, kind)
		}
		rules[id] = rule
	}
	chaos := transport.NewChaos(1)
	for id, rule := range rules {
		chaos.SetRule(id, rule)
	}
	return chaos, nil
}

// runCtrl serves Zipf-distributed reads through a Sprout controller whose
// chunks live in the emulated OSD cluster: parallel (optionally hedged)
// degraded reads against the calibrated service times, background cache
// fills, the auto-replanner re-planning from measured rates, and — with
// -fail/-recover — OSD failures injected under live load with the repair
// plane reconstructing lost chunks concurrently.
func runCtrl(oc *objstore.Cluster, cfg ctrlConfig) {
	if cfg.controllers > 1 {
		runCtrlSharded(oc, cfg)
		return
	}
	ctx := context.Background()
	pool, err := oc.Pool("ec-7-4")
	if err != nil {
		fail(err)
	}

	// Write every object into the erasure-coded pool; the controller then
	// reads chunks back through the pool's CRUSH-like placement.
	fmt.Printf("sproutstore: writing %d objects of %d bytes into ec-7-4...\n", cfg.objects, cfg.objSize)
	rng := rand.New(rand.NewSource(6))
	payload := make([]byte, cfg.objSize)
	objName := func(fileID int) string { return fmt.Sprintf("file-%04d", fileID) }
	for i := 0; i < cfg.objects; i++ {
		rng.Read(payload)
		if err := pool.Put(ctx, objName(i), payload); err != nil {
			fail(err)
		}
	}

	// Export the pool's real topology (same OSD IDs, same per-chunk
	// placement) to the controller, so membership changes map one to one.
	lambdas := workload.Zipf(cfg.objects, 1.1, 50)
	clu, err := pool.ClusterView(lambdas)
	if err != nil {
		fail(err)
	}
	capacity := cfg.cacheChunks
	if capacity <= 0 {
		capacity = 3 * cfg.objects
	}
	// One process-wide scheduler batches every periodic plane — the
	// controller's control job and the repair scan —
	// onto a single goroutine and timer.
	sched := tick.New()
	defer sched.Close()
	cfg.serve.Tick = sched

	ctrl, err := core.NewControllerWith(clu, capacity, optimizer.Options{MaxOuterIter: 10}, cfg.serve, 1)
	if err != nil {
		fail(err)
	}
	defer ctrl.Close()
	fetcher := core.FetcherFunc(func(ctx context.Context, fileID, chunkIndex, _ int) ([]byte, error) {
		return pool.GetChunk(ctx, objName(fileID), chunkIndex)
	})
	if _, err := ctrl.PlanTimeBin(lambdas); err != nil {
		fail(err)
	}
	if err := ctrl.PrefetchCache(ctx, fetcher); err != nil {
		fail(err)
	}

	mgr := repair.NewManager(pool, repair.Config{
		Workers:      cfg.repairWorkers,
		ScanInterval: cfg.repairScan,
		Tick:         sched,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	mgr.Start()
	defer mgr.Close()

	if cfg.metricsAddr != "" {
		serveMetrics(cfg.metricsAddr, obs.Sources{
			Controller: ctrl,
			Repair:     mgr.Stats,
			OSDHealth:  oc.Health,
			Runtime:    true,
			Pools: []obs.PoolSource{
				core.FillArena(), core.ReadScratchPool(), erasure.StripeScratchPool(),
			},
			Rings: []obs.RingSource{
				{Name: "controller_fill", Stats: ctrl.FillQueueStats},
				{Name: "repair_wake", Stats: mgr.QueueStats},
			},
		})
	}

	fmt.Printf("sproutstore: serving %d readers for %v (hedge %v +%d, replan every %v)\n",
		cfg.clients, cfg.duration, cfg.serve.HedgeDelay, cfg.serve.HedgeExtra, cfg.serve.ReplanInterval)
	picker := workload.NewRatePicker(lambdas)
	stop := time.Now().Add(cfg.duration)
	start := time.Now()
	var reads atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w) + 40))
			var dst []byte // reused across reads: ReadInto grows it once, then steady-state is zero-alloc
			for time.Now().Before(stop) {
				fileID := picker.Pick(r.Float64())
				out, err := ctrl.ReadInto(ctx, fileID, fetcher, dst)
				if err != nil {
					fail(err)
				}
				dst = out
				reads.Add(1)
			}
		}(w)
	}

	// Apply the scheduled failure/recovery events under live load.
	var injectWG sync.WaitGroup
	inject := func(events []osdEvent, action func(ids []int)) {
		for _, ev := range events {
			injectWG.Add(1)
			go func(ev osdEvent) {
				defer injectWG.Done()
				wait := time.Until(start.Add(ev.after))
				if wait > 0 {
					time.Sleep(wait)
				}
				action(ev.ids)
			}(ev)
		}
	}
	inject(cfg.failures, func(ids []int) {
		if err := oc.FailOSDs(cfg.loseChunks, ids...); err != nil {
			fmt.Fprintf(os.Stderr, "sproutstore: fail injection: %v\n", err)
			return
		}
		for _, id := range ids {
			ctrl.SetNodeDown(id)
		}
		mgr.Kick()
		fmt.Printf("sproutstore: failed OSDs %v (lose chunks: %v)\n", ids, cfg.loseChunks)
	})
	inject(cfg.recoveries, func(ids []int) {
		if err := oc.RecoverOSDs(ids...); err != nil {
			fmt.Fprintf(os.Stderr, "sproutstore: recover injection: %v\n", err)
			return
		}
		for _, id := range ids {
			ctrl.SetNodeUp(id)
		}
		mgr.Kick()
		fmt.Printf("sproutstore: recovered OSDs %v\n", ids)
	})

	wg.Wait()
	injectWG.Wait()
	ctrl.WaitFills()

	stats := ctrl.Stats()
	lat := ctrl.ReadLatency()
	fmt.Printf("served %d reads (%.0f/s)\n", reads.Load(), float64(reads.Load())/cfg.duration.Seconds())
	fmt.Printf("  cache-hit reads: %6d  p50 %9v  p90 %9v  p99 %9v\n",
		lat.CacheHit.Count, lat.CacheHit.P50, lat.CacheHit.P90, lat.CacheHit.P99)
	fmt.Printf("  storage reads:   %6d  p50 %9v  p90 %9v  p99 %9v\n",
		lat.Storage.Count, lat.Storage.P50, lat.Storage.P90, lat.Storage.P99)
	fmt.Printf("  degraded reads:  %6d  p50 %9v  p90 %9v  p99 %9v\n",
		lat.Degraded.Count, lat.Degraded.P50, lat.Degraded.P90, lat.Degraded.P99)
	fmt.Printf("  chunks: %d from cache, %d from OSDs; %d background fills (%d dropped)\n",
		stats.ChunksFromCache, stats.ChunksFromDisk, stats.LazyFills, stats.FillsDropped)
	fmt.Printf("  hedges: %d launched, %d wins; failovers: %d; cache rescues: %d\n",
		stats.HedgesLaunched, stats.HedgeWins, stats.FetchFailovers, stats.CacheRescues)
	fmt.Printf("  plans: %d total, %d auto-replans, %d rejected; membership changes: %d\n",
		stats.PlanUpdates, stats.AutoReplans, stats.ReplanErrors, stats.MembershipChanges)
	if len(cfg.failures) > 0 {
		rs := mgr.Stats()
		degraded := len(pool.DegradedObjects())
		fmt.Printf("  repair: %d chunks (%d KiB) reconstructed in %v, %d deferred, %d failures; degraded objects left: %d\n",
			rs.ChunksRepaired, rs.BytesRepaired>>10, rs.RepairTime.Round(time.Millisecond),
			rs.Deferred, rs.Failures, degraded)
		down := ctrl.DownNodes()
		fmt.Printf("  membership: down OSDs at exit: %v\n", down)
	}
}

// shardObjName is the object naming scheme shared by the sharded ctrl and
// serve paths, matching the ingest loop's "file-%04d".
func shardObjName(fileID int) string { return fmt.Sprintf("file-%04d", fileID) }

// poolShardFetcher adapts the erasure pool's versioned chunk reads to the
// controller fetcher interface, so shard caches learn the stripe version of
// every chunk they hold and late invalidations can be recognised as stale.
type poolShardFetcher struct{ pool *objstore.Pool }

func (f *poolShardFetcher) FetchChunk(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, error) {
	data, _, err := f.FetchChunkV(ctx, fileID, chunkIndex, nodeID)
	return data, err
}

func (f *poolShardFetcher) FetchChunkV(ctx context.Context, fileID, chunkIndex, _ int) ([]byte, core.StripeInfo, error) {
	data, version, size, err := f.pool.GetChunkV(ctx, shardObjName(fileID), chunkIndex)
	if err != nil {
		return nil, core.StripeInfo{}, err
	}
	return data, core.StripeInfo{Version: version, Size: size}, nil
}

// poolShardWriter commits whole-object overwrites through the pool and
// reports the committed stripe version for the invalidation fan-out.
type poolShardWriter struct{ pool *objstore.Pool }

func (w *poolShardWriter) WriteObject(ctx context.Context, fileID int, data []byte) (uint64, error) {
	return w.pool.PutV(ctx, shardObjName(fileID), data)
}

// runCtrlSharded is runCtrl with the namespace consistent-hash-sharded over
// cfg.controllers in-process shard controllers behind the read/write router.
// The total cache budget is split evenly across shards, each shard plans only
// its owned slice (lambda-masked), and readers go through the router's
// ownership routing.
func runCtrlSharded(oc *objstore.Cluster, cfg ctrlConfig) {
	ctx := context.Background()
	pool, err := oc.Pool("ec-7-4")
	if err != nil {
		fail(err)
	}

	fmt.Printf("sproutstore: writing %d objects of %d bytes into ec-7-4...\n", cfg.objects, cfg.objSize)
	rng := rand.New(rand.NewSource(6))
	payload := make([]byte, cfg.objSize)
	for i := 0; i < cfg.objects; i++ {
		rng.Read(payload)
		if err := pool.Put(ctx, shardObjName(i), payload); err != nil {
			fail(err)
		}
	}

	lambdas := workload.Zipf(cfg.objects, 1.1, 50)
	clu, err := pool.ClusterView(lambdas)
	if err != nil {
		fail(err)
	}
	capacity := cfg.cacheChunks
	if capacity <= 0 {
		capacity = 3 * cfg.objects
	}
	perShard := capacity / cfg.controllers
	if perShard < 1 {
		perShard = 1
	}
	sched := tick.New()
	defer sched.Close()
	cfg.serve.Tick = sched

	r := router.New(router.Options{FanoutWorkers: 2})
	defer r.Close()
	ctrls := make([]*core.Controller, cfg.controllers)
	for i := range ctrls {
		ctrl, err := core.NewControllerWith(clu, perShard, optimizer.Options{MaxOuterIter: 10}, cfg.serve, int64(i+1))
		if err != nil {
			fail(err)
		}
		defer ctrl.Close()
		ctrls[i] = ctrl
		if err := r.AddShard(router.Shard{ID: fmt.Sprintf("shard-%d", i), Ctrl: ctrl}); err != nil {
			fail(err)
		}
	}
	fetcher := &poolShardFetcher{pool: pool}
	// The router masks each shard's lambdas to its owned files, so every
	// shard spends its cache slice only on content it actually serves.
	if err := r.PlanTimeBin(lambdas); err != nil {
		fail(err)
	}
	if err := r.PrefetchCache(ctx, fetcher); err != nil {
		fail(err)
	}

	mgr := repair.NewManager(pool, repair.Config{
		Workers:      cfg.repairWorkers,
		ScanInterval: cfg.repairScan,
		Tick:         sched,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	mgr.Start()
	defer mgr.Close()

	if cfg.metricsAddr != "" {
		shardSrcs := make([]obs.ShardSource, len(ctrls))
		for i, ctrl := range ctrls {
			shardSrcs[i] = obs.ShardSource{Shard: fmt.Sprintf("shard-%d", i), Controller: ctrl}
		}
		serveMetrics(cfg.metricsAddr, obs.Sources{
			Router:    r,
			Shards:    shardSrcs,
			Repair:    mgr.Stats,
			OSDHealth: oc.Health,
			Runtime:   true,
			Pools: []obs.PoolSource{
				core.FillArena(), core.ReadScratchPool(), erasure.StripeScratchPool(),
			},
			Rings: []obs.RingSource{
				{Name: "repair_wake", Stats: mgr.QueueStats},
			},
		})
	}

	fmt.Printf("sproutstore: serving %d readers for %v across %d shards (cache %d chunks/shard, hedge %v +%d, replan every %v)\n",
		cfg.clients, cfg.duration, cfg.controllers, perShard,
		cfg.serve.HedgeDelay, cfg.serve.HedgeExtra, cfg.serve.ReplanInterval)
	picker := workload.NewRatePicker(lambdas)
	stop := time.Now().Add(cfg.duration)
	start := time.Now()
	var reads atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(int64(w) + 40))
			var dst []byte
			for time.Now().Before(stop) {
				fileID := picker.Pick(rr.Float64())
				out, err := r.ReadInto(ctx, fileID, fetcher, dst)
				if err != nil {
					fail(err)
				}
				dst = out
				reads.Add(1)
			}
		}(w)
	}

	var injectWG sync.WaitGroup
	inject := func(events []osdEvent, action func(ids []int)) {
		for _, ev := range events {
			injectWG.Add(1)
			go func(ev osdEvent) {
				defer injectWG.Done()
				wait := time.Until(start.Add(ev.after))
				if wait > 0 {
					time.Sleep(wait)
				}
				action(ev.ids)
			}(ev)
		}
	}
	inject(cfg.failures, func(ids []int) {
		if err := oc.FailOSDs(cfg.loseChunks, ids...); err != nil {
			fmt.Fprintf(os.Stderr, "sproutstore: fail injection: %v\n", err)
			return
		}
		for _, ctrl := range ctrls {
			for _, id := range ids {
				ctrl.SetNodeDown(id)
			}
		}
		mgr.Kick()
		fmt.Printf("sproutstore: failed OSDs %v (lose chunks: %v)\n", ids, cfg.loseChunks)
	})
	inject(cfg.recoveries, func(ids []int) {
		if err := oc.RecoverOSDs(ids...); err != nil {
			fmt.Fprintf(os.Stderr, "sproutstore: recover injection: %v\n", err)
			return
		}
		for _, ctrl := range ctrls {
			for _, id := range ids {
				ctrl.SetNodeUp(id)
			}
		}
		mgr.Kick()
		fmt.Printf("sproutstore: recovered OSDs %v\n", ids)
	})

	wg.Wait()
	injectWG.Wait()
	for _, ctrl := range ctrls {
		ctrl.WaitFills()
	}

	stats := r.AggregateStats()
	lat := r.AggregateReadLatency()
	rs := r.Stats()
	fmt.Printf("served %d reads (%.0f/s) across %d shards\n",
		reads.Load(), float64(reads.Load())/cfg.duration.Seconds(), cfg.controllers)
	fmt.Printf("  aggregate latency: p50 %9v  p90 %9v  p99 %9v  (mean %v over %d reads)\n",
		lat.P50, lat.P90, lat.P99, lat.Mean, lat.Count)
	for i, ctrl := range ctrls {
		var routed int64
		for _, s := range rs.Shards {
			if s.ID == fmt.Sprintf("shard-%d", i) {
				routed = s.Reads
			}
		}
		cl := ctrl.ReadLatency()
		cs := ctrl.Stats()
		fmt.Printf("  shard-%d: %6d routed reads, %d/%d chunks cache/OSD, storage p99 %9v\n",
			i, routed, cs.ChunksFromCache, cs.ChunksFromDisk, cl.Storage.P99)
	}
	fmt.Printf("  chunks: %d from cache, %d from OSDs; %d background fills (%d dropped)\n",
		stats.ChunksFromCache, stats.ChunksFromDisk, stats.LazyFills, stats.FillsDropped)
	fmt.Printf("  hedges: %d launched, %d wins; failovers: %d; cache rescues: %d\n",
		stats.HedgesLaunched, stats.HedgeWins, stats.FetchFailovers, stats.CacheRescues)
	fmt.Printf("  plans: %d total, %d auto-replans, %d rejected; ring version %d\n",
		stats.PlanUpdates, stats.AutoReplans, stats.ReplanErrors, rs.RingVersion)
	if rs.InvalidationsSent > 0 || rs.Fanouts > 0 {
		fmt.Printf("  invalidations: %d sent, %d errors; fan-out p99 %v\n",
			rs.InvalidationsSent, rs.InvalidationErrors, rs.FanoutLatency.P99)
	}
	if len(cfg.failures) > 0 {
		rps := mgr.Stats()
		degraded := len(pool.DegradedObjects())
		fmt.Printf("  repair: %d chunks (%d KiB) reconstructed in %v, %d deferred, %d failures; degraded objects left: %d\n",
			rps.ChunksRepaired, rps.BytesRepaired>>10, rps.RepairTime.Round(time.Millisecond),
			rps.Deferred, rps.Failures, degraded)
	}
}

// serveShardEndpoints ingests the working set into ec-7-4 and exposes N
// shard controllers as TCP endpoints speaking the controller op set, next to
// the plain object-store server. The in-process router is the membership
// authority remote routers sync from (CtrlMembership); reads and writes
// arrive at the shard endpoints from remote routers, which fan invalidations
// out to peers themselves.
func serveShardEndpoints(oc *objstore.Cluster, shards, objects, objSize, workers int) (*router.Router, []*router.PeerEndpoint, error) {
	ctx := context.Background()
	pool, err := oc.Pool("ec-7-4")
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(6))
	payload := make([]byte, objSize)
	for i := 0; i < objects; i++ {
		rng.Read(payload)
		if err := pool.Put(ctx, shardObjName(i), payload); err != nil {
			return nil, nil, err
		}
	}
	lambdas := workload.Zipf(objects, 1.1, 50)
	clu, err := pool.ClusterView(lambdas)
	if err != nil {
		return nil, nil, err
	}
	capacity := 3 * objects / shards
	if capacity < 1 {
		capacity = 1
	}
	fetcher := &poolShardFetcher{pool: pool}
	writer := &poolShardWriter{pool: pool}
	r := router.New(router.Options{FanoutWorkers: 2})
	var eps []*router.PeerEndpoint
	var ctrls []*core.Controller
	cleanup := func() {
		for _, ep := range eps {
			_ = ep.Close()
		}
		for _, ctrl := range ctrls {
			_ = ctrl.Close()
		}
		_ = r.Close()
	}
	for i := 0; i < shards; i++ {
		ctrl, err := core.NewControllerWith(clu, capacity, optimizer.Options{MaxOuterIter: 10}, core.ServeOptions{}, int64(i+1))
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		ctrls = append(ctrls, ctrl)
		ep, err := router.ServeShard(ctrl, fetcher, writer, r, "127.0.0.1:0", transport.ServerConfig{
			Workers:      workers,
			StagedPutTTL: time.Minute,
		})
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		eps = append(eps, ep)
		if err := r.AddShard(router.Shard{ID: fmt.Sprintf("shard-%d", i), Addr: ep.Addr()}); err != nil {
			cleanup()
			return nil, nil, err
		}
	}
	// Plan once the ring is complete so each shard's lambda mask matches the
	// ownership remote routers will compute after a membership sync.
	for i, ctrl := range ctrls {
		if _, err := ctrl.PlanTimeBin(r.MaskLambdas(fmt.Sprintf("shard-%d", i), lambdas)); err != nil {
			cleanup()
			return nil, nil, err
		}
		if err := ctrl.PrefetchCache(ctx, fetcher); err != nil {
			cleanup()
			return nil, nil, err
		}
	}
	return r, eps, nil
}

// runLoad drives mixed GetChunk/striped-write traffic at a remote server and
// reports throughput and latency percentiles, writing a small working set
// first. With writeFrac > 0 the given fraction of requests are full striped
// writes — client-side encode, parallel staged chunks, two-phase commit —
// overwriting the shared working set under the concurrent readers.
func runLoad(target string, clients, conns int, duration time.Duration, writeFrac float64) {
	client, err := transport.DialConfig(target, transport.ClientConfig{Conns: conns})
	if err != nil {
		fail(err)
	}
	defer client.Close()
	ctx := context.Background()
	pools, err := client.Pools(ctx)
	if err != nil {
		fail(err)
	}
	if len(pools) == 0 {
		fail(fmt.Errorf("server exposes no pools"))
	}
	pool := pools[0]
	writer, err := transport.NewStripedWriter(ctx, client, pool)
	if err != nil {
		fail(err)
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	const loadObjects = 8
	payload := make([]byte, 256<<10)
	for i := 0; i < loadObjects; i++ {
		rng.Read(payload)
		if _, err := writer.Put(ctx, fmt.Sprintf("load-%02d", i), payload); err != nil {
			fail(err)
		}
	}
	fmt.Printf("sproutstore: driving %d clients over %d conns at %s (pool %q, writefrac %.2f) for %v\n",
		clients, conns, target, pool, writeFrac, duration)

	deadline := time.Now().Add(duration)
	readLats := make([][]time.Duration, clients)
	writeLats := make([][]time.Duration, clients)
	for w := 0; w < clients; w++ {
		readLats[w] = []time.Duration{}
		writeLats[w] = []time.Duration{}
	}
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w) + 77))
			buf := make([]byte, len(payload))
			for i := 0; time.Now().Before(deadline); i++ {
				obj := fmt.Sprintf("load-%02d", (w+i)%loadObjects)
				start := time.Now()
				if writeFrac > 0 && r.Float64() < writeFrac {
					r.Read(buf[:4096]) // vary a prefix; full refills would dominate
					if _, err := writer.Put(ctx, obj, buf); err != nil {
						if errors.Is(err, transport.ErrOverloaded) {
							continue
						}
						fail(err)
					}
					writeLats[w] = append(writeLats[w], time.Since(start))
					continue
				}
				if _, _, err := client.GetChunk(ctx, pool, obj, i%3); err != nil {
					if errors.Is(err, transport.ErrOverloaded) {
						// Shed requests are the backpressure working; the
						// client already counts them in its stats.
						continue
					}
					fail(err)
				}
				readLats[w] = append(readLats[w], time.Since(start))
			}
		}(w)
	}
	wg.Wait()

	report := func(kind string, lats [][]time.Duration) {
		var merged []time.Duration
		for _, l := range lats {
			merged = append(merged, l...)
		}
		if len(merged) == 0 {
			return
		}
		sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
		pct := func(p float64) time.Duration { return merged[int(p*float64(len(merged)-1))] }
		fmt.Printf("completed %d %s: %.0f ops/s, p50 %v, p99 %v\n",
			len(merged), kind, float64(len(merged))/duration.Seconds(),
			pct(0.50).Round(time.Microsecond), pct(0.99).Round(time.Microsecond))
	}
	report("chunk reads", readLats)
	report("striped writes", writeLats)
	s := client.Stats()
	fmt.Printf("client stats: %d frames / %d KiB sent, %d frames / %d KiB received, %d retries, %d overload rejections\n",
		s.FramesSent, s.BytesSent>>10, s.FramesReceived, s.BytesReceived>>10, s.Retries, s.OverloadRejections)
}

func runDemo(cluster *objstore.Cluster, pools map[int]*objstore.Pool, objects, objSize int) {
	ctx := context.Background()
	base, err := cluster.Pool("ec-7-4")
	if err != nil {
		fail(err)
	}
	rng := rand.New(rand.NewSource(2))
	payload := make([]byte, objSize)

	fmt.Printf("writing %d objects of %d bytes through the (7,4) pool and the equivalent pools...\n", objects, objSize)
	for i := 0; i < objects; i++ {
		rng.Read(payload)
		name := fmt.Sprintf("obj-%03d", i)
		if err := base.Put(ctx, name, payload); err != nil {
			fail(err)
		}
		// Equivalent-code methodology: pool eq-d holds the (4-d)/4 portion of
		// the object that must still be read from storage when d chunks are
		// cached, so chunk sizes match the (7,4) pool.
		for d, p := range pools {
			portion := payload[:objSize*(4-d)/4]
			if err := p.Put(ctx, name, portion); err != nil {
				fail(err)
			}
		}
	}

	var lruTotal, funcTotal time.Duration
	for i := 0; i < objects; i++ {
		name := fmt.Sprintf("obj-%03d", i)
		if _, lat, err := cluster.ReadThroughLRU(ctx, base, name); err != nil {
			fail(err)
		} else {
			lruTotal += lat
		}
		// Functional caching with d = 2 of 4 chunks in cache.
		if _, lat, err := cluster.ReadFunctional(ctx, pools, name, 2, 4, int64(objSize)); err != nil {
			fail(err)
		} else {
			funcTotal += lat
		}
	}
	fmt.Printf("cold LRU tier reads:      mean %v\n", lruTotal/time.Duration(objects))
	fmt.Printf("functional caching (d=2): mean %v\n", funcTotal/time.Duration(objects))

	// Second pass: the LRU tier is now warm.
	lruTotal = 0
	for i := 0; i < objects; i++ {
		name := fmt.Sprintf("obj-%03d", i)
		if _, lat, err := cluster.ReadThroughLRU(ctx, base, name); err != nil {
			fail(err)
		} else {
			lruTotal += lat
		}
	}
	hits, misses, _ := cluster.CacheTier().Stats()
	fmt.Printf("warm LRU tier reads:      mean %v (hits %d, misses %d)\n", lruTotal/time.Duration(objects), hits, misses)
}

// serveMetrics exposes the bridged metric registry at addr/metrics for the
// life of the process.
func serveMetrics(addr string, src obs.Sources) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.NewRegistry(src).Handler())
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil {
			fmt.Fprintf(os.Stderr, "sproutstore: metrics server: %v\n", err)
		}
	}()
	fmt.Printf("sproutstore: metrics at http://%s/metrics\n", addr)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sproutstore:", err)
	os.Exit(1)
}
