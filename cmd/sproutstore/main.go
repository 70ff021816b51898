// Command sproutstore runs the emulated Ceph-like object store, either as a
// live Sprout deployment (the default ctrl mode: N >= 1 shard controllers
// behind the read/write router serving reads over the emulated OSDs with
// hedged parallel fetches and the auto-replanner), as a TCP server speaking
// the multiplexed binary protocol, or as a load-generating client against
// such a server. examples/cephcluster compares the LRU cache tier with
// functional caching over TCP.
//
// Usage:
//
//	sproutstore -mode ctrl -clients 8 -duration 3s -hedge-delay 10ms -replan-every 500ms
//	sproutstore -mode ctrl -duration 3s -fail "500ms:2,5" -recover "2s:2" -lose
//	sproutstore -mode ctrl -controllers 4 -clients 32 -duration 3s
//	sproutstore -mode serve -addr 127.0.0.1:7440 -workers 16 -inflight 512
//	sproutstore -mode serve -chaos "2:lat=30ms;2:err=0.2;5:stall=1s;7:drop"
//	sproutstore -mode serve -controllers 4   # shard endpoints alongside the store
//	sproutstore -mode load -target 127.0.0.1:7440 -clients 64 -conns 4
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
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
		mode    = flag.String("mode", "ctrl", "ctrl, serve, or load")
		addr    = flag.String("addr", "127.0.0.1:0", "listen address in serve mode")
		osds    = flag.Int("osds", 12, "number of OSDs")
		objects = flag.Int("objects", 20, "ctrl/serve: objects written into the pool")
		objSize = flag.Int("size", 1<<20, "ctrl/serve: object size in bytes")

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
		controllers = flag.Int("controllers", 1, "ctrl: shard controllers behind the consistent-hash router; serve: shard endpoints beside the store when > 1")
		cacheChunks = flag.Int("cache", 0, "ctrl/serve: functional-cache capacity in chunks, split across shards (0 = 3 per object)")
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

	cluster, err := newCluster(*osds, *objSize)
	if err != nil {
		fail(err)
	}

	switch *mode {
	case "serve":
		// The equivalent-code pools eq-0..eq-3 let remote clients repeat the
		// paper's functional-caching methodology (see examples/cephcluster).
		if _, err := cluster.CreateEquivalentPools("eq", 7, 4); err != nil {
			fail(err)
		}
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
			Logf:         logf,
		})
		bound, err := srv.Listen(*addr)
		if err != nil {
			fail(err)
		}
		fmt.Printf("sproutstore: serving object store on %s (pools: ec-7-4, eq-0..eq-3)\n", bound)
		if chaos != nil {
			fmt.Printf("sproutstore: chaos rules active: %s\n", *chaosSpec)
		}
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
		if *controllers > 1 {
			pool, err := cluster.Pool("ec-7-4")
			if err != nil {
				fail(err)
			}
			r := router.New(router.Options{FanoutWorkers: 2})
			defer r.Close()
			p, eps, err := serveShards(pool, r, *controllers, *objects, *objSize, *cacheChunks, *workers)
			if err != nil {
				fail(err)
			}
			defer p.close()
			for i, ep := range eps {
				fmt.Printf("sproutstore: shard %s serving controller ops on %s\n", p.ids[i], ep.Addr())
				defer ep.Close()
			}
			src.Shards = p.shardSources()
		}
		if *metricsAddr != "" {
			ms, err := serveMetrics(*metricsAddr, src)
			if err != nil {
				fail(err)
			}
			defer ms.Close()
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
	case "ctrl":
		failEvents, err := parseOSDEvents(*failSpec)
		if err != nil {
			fail(fmt.Errorf("-fail: %w", err))
		}
		recoverEvents, err := parseOSDEvents(*recoverSpec)
		if err != nil {
			fail(fmt.Errorf("-recover: %w", err))
		}
		if _, err := runCtrl(cluster, ctrlConfig{
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
				Logf:            logf,
			},
		}, os.Stdout); err != nil {
			fail(err)
		}
	default:
		fail(fmt.Errorf("unknown mode %q", *mode))
	}
}

// newCluster builds the emulated OSD cluster, with service times calibrated
// to objSize, and its (7,4) pool ec-7-4.
func newCluster(osds, objSize int) (*objstore.Cluster, error) {
	cluster, err := objstore.NewCluster(objstore.ClusterConfig{
		NumOSDs:      osds,
		Services:     []queue.Dist{queue.ShiftedExponential{Shift: 0.002, Rate: 500}},
		RefChunkSize: int64(objSize / 4),
		Seed:         1,
	})
	if err != nil {
		return nil, err
	}
	if _, err := cluster.CreatePool("ec-7-4", 7, 4); err != nil {
		return nil, err
	}
	return cluster, nil
}

// ctrlConfig gathers the knobs of the controller serving mode.
type ctrlConfig struct {
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
			if !(rule.ErrorRate >= 0 && rule.ErrorRate <= 1) { // also rejects NaN
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

// objName is the object naming scheme of the ingested working set.
func objName(fileID int) string { return fmt.Sprintf("file-%04d", fileID) }

// poolFetcher adapts the erasure pool's versioned chunk reads to the
// controller fetcher interface, so shard caches learn the stripe version of
// every chunk they hold and late invalidations can be recognised as stale.
type poolFetcher struct{ pool *objstore.Pool }

func (f *poolFetcher) FetchChunk(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, error) {
	data, _, err := f.FetchChunkV(ctx, fileID, chunkIndex, nodeID)
	return data, err
}

func (f *poolFetcher) FetchChunkV(ctx context.Context, fileID, chunkIndex, _ int) ([]byte, core.StripeInfo, error) {
	data, version, size, err := f.pool.GetChunkV(ctx, objName(fileID), chunkIndex)
	if err != nil {
		return nil, core.StripeInfo{}, err
	}
	return data, core.StripeInfo{Version: version, Size: size}, nil
}

// poolWriter commits whole-object overwrites through the pool and reports
// the committed stripe version for the invalidation fan-out.
type poolWriter struct{ pool *objstore.Pool }

func (w *poolWriter) WriteObject(ctx context.Context, fileID int, data []byte) (uint64, error) {
	return w.pool.PutV(ctx, objName(fileID), data)
}

// shardPlane is n shard controllers behind one router over the ec-7-4 pool:
// the only controller deployment, from one shard (the paper's single
// proxy) up.
type shardPlane struct {
	fetcher  *poolFetcher
	ids      []string
	ctrls    []*core.Controller
	lambdas  []float64
	perShard int
}

// newShardPlane ingests the working set into ec-7-4 and puts n in-process
// controllers behind r, each with an even slice of the cache budget
// (cacheChunks, or 3 per object when 0). In serve mode endpoint serves each
// controller over TCP and returns the address the router advertises for it
// in membership exchanges; ctrl mode passes nil. Once the ring is complete
// every shard plans and warms only the files it owns; with one shard that
// is every file.
func newShardPlane(pool *objstore.Pool, r *router.Router, n, objects, objSize, cacheChunks int,
	serve core.ServeOptions, endpoint func(id string, ctrl *core.Controller) (string, error)) (*shardPlane, error) {
	if n < 1 {
		return nil, fmt.Errorf("-controllers %d: need at least one shard", n)
	}
	if err := pool.Fill(context.Background(), objects, objSize, 6, objName); err != nil {
		return nil, err
	}
	p := &shardPlane{fetcher: &poolFetcher{pool: pool}, lambdas: workload.Zipf(objects, 1.1, 50)}
	clu, err := pool.ClusterView(p.lambdas)
	if err != nil {
		return nil, err
	}
	if cacheChunks <= 0 {
		cacheChunks = 3 * objects
	}
	p.perShard = max(cacheChunks/n, 1)
	for i := 0; i < n; i++ {
		ctrl, err := core.NewControllerWith(clu, p.perShard, optimizer.Options{MaxOuterIter: 10}, serve, int64(i+1))
		if err != nil {
			p.close()
			return nil, err
		}
		sh := router.Shard{ID: fmt.Sprintf("shard-%d", i), Ctrl: ctrl}
		p.ids, p.ctrls = append(p.ids, sh.ID), append(p.ctrls, ctrl)
		if endpoint != nil {
			sh.Addr, err = endpoint(sh.ID, ctrl)
		}
		if err == nil {
			err = r.AddShard(sh)
		}
		if err != nil {
			p.close()
			return nil, err
		}
	}
	err = r.PlanTimeBin(p.lambdas)
	if err == nil {
		err = r.PrefetchCache(context.Background(), p.fetcher)
	}
	if err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

func (p *shardPlane) close() {
	for _, ctrl := range p.ctrls {
		_ = ctrl.Close()
	}
}

// serveShards puts n shard controllers behind r, each also served over TCP
// as an endpoint speaking the controller op set. r is the membership
// authority remote routers sync from; they send reads and writes to the
// endpoints and fan invalidations out to peers themselves.
func serveShards(pool *objstore.Pool, r *router.Router, n, objects, objSize, cacheChunks, workers int) (*shardPlane, []*router.PeerEndpoint, error) {
	var eps []*router.PeerEndpoint
	p, err := newShardPlane(pool, r, n, objects, objSize, cacheChunks, core.ServeOptions{},
		func(id string, ctrl *core.Controller) (string, error) {
			ep, err := router.ServeShard(ctrl, &poolFetcher{pool: pool}, &poolWriter{pool: pool}, r, "127.0.0.1:0",
				transport.ServerConfig{Workers: workers, StagedPutTTL: time.Minute})
			if err != nil {
				return "", err
			}
			eps = append(eps, ep)
			return ep.Addr(), nil
		})
	if err != nil {
		for _, ep := range eps {
			_ = ep.Close()
		}
		return nil, nil, err
	}
	return p, eps, nil
}

// shardSources names every shard controller for the metrics exporter.
func (p *shardPlane) shardSources() []obs.ShardSource {
	out := make([]obs.ShardSource, len(p.ctrls))
	for i, ctrl := range p.ctrls {
		out[i] = obs.ShardSource{Shard: p.ids[i], Controller: ctrl}
	}
	return out
}

// metricsSources exports the ctrl deployment: every shard controller under
// its shard label, next to the router, repair and OSD planes.
func (p *shardPlane) metricsSources(r *router.Router, oc *objstore.Cluster, mgr *repair.Manager) obs.Sources {
	return obs.Sources{
		Shards:    p.shardSources(),
		Router:    r,
		Repair:    mgr.Stats,
		OSDHealth: oc.Health,
		Runtime:   true,
		Pools: []obs.PoolSource{
			core.FillArena(), core.ReadScratchPool(), erasure.StripeScratchPool(),
		},
		Rings: []obs.RingSource{{Name: "repair_wake", Stats: mgr.QueueStats}},
	}
}

// runCtrl serves Zipf-distributed reads through cfg.controllers shard
// controllers behind the read/write router, with chunks in the emulated OSD
// cluster: parallel (optionally hedged) degraded reads against the
// calibrated service times, background cache fills, the auto-replanner
// re-planning from measured rates, and — with -fail/-recover — OSD failures
// injected under live load while the repair plane reconstructs lost chunks.
// It reports to out and returns the number of reads served. A failed read
// stops its reader; it and any failed injection are returned as errors.
func runCtrl(oc *objstore.Cluster, cfg ctrlConfig, out io.Writer) (int64, error) {
	ctx := context.Background()
	pool, err := oc.Pool("ec-7-4")
	if err != nil {
		return 0, err
	}
	// One process-wide scheduler batches every periodic plane — each
	// shard's control job and the repair scan — onto a single goroutine and
	// timer.
	sched := tick.New()
	defer sched.Close()
	cfg.serve.Tick = sched
	r := router.New(router.Options{FanoutWorkers: 2})
	defer r.Close()

	fmt.Fprintf(out, "sproutstore: writing %d objects of %d bytes into ec-7-4...\n", cfg.objects, cfg.objSize)
	p, err := newShardPlane(pool, r, cfg.controllers, cfg.objects, cfg.objSize, cfg.cacheChunks, cfg.serve, nil)
	if err != nil {
		return 0, err
	}
	defer p.close()

	mgr := repair.NewManager(pool, repair.Config{
		Workers:      cfg.repairWorkers,
		ScanInterval: cfg.repairScan,
		Tick:         sched,
		Logf:         logf,
	})
	mgr.Start()
	defer mgr.Close()
	if cfg.metricsAddr != "" {
		ms, err := serveMetrics(cfg.metricsAddr, p.metricsSources(r, oc, mgr))
		if err != nil {
			return 0, err
		}
		defer ms.Close()
	}

	fmt.Fprintf(out, "sproutstore: serving %d readers for %v across %d shards (cache %d chunks/shard, hedge %v +%d, replan every %v)\n",
		cfg.clients, cfg.duration, cfg.controllers, p.perShard,
		cfg.serve.HedgeDelay, cfg.serve.HedgeExtra, cfg.serve.ReplanInterval)
	picker := workload.NewRatePicker(p.lambdas)
	start := time.Now()
	stop := start.Add(cfg.duration)
	var reads atomic.Int64
	readErrs := make([]error, cfg.clients)
	var wg sync.WaitGroup
	for w := 0; w < cfg.clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 40))
			var dst []byte // reused across reads: ReadInto grows it once, then steady-state is zero-alloc
			for time.Now().Before(stop) {
				data, err := r.ReadInto(ctx, picker.Pick(rng.Float64()), p.fetcher, dst)
				if err != nil {
					readErrs[w] = fmt.Errorf("reader %d: %w", w, err)
					return
				}
				dst = data
				reads.Add(1)
			}
		}(w)
	}

	// Apply the scheduled failure/recovery events under live load, to the
	// storage plane and to every shard's membership view.
	var injectWG sync.WaitGroup
	var injectMu sync.Mutex
	var injectErrs []error
	inject := func(events []osdEvent, action func(ids []int) error) {
		for _, ev := range events {
			injectWG.Add(1)
			go func(ev osdEvent) {
				defer injectWG.Done()
				time.Sleep(time.Until(start.Add(ev.after)))
				if err := action(ev.ids); err != nil {
					injectMu.Lock()
					injectErrs = append(injectErrs, err)
					injectMu.Unlock()
				}
			}(ev)
		}
	}
	inject(cfg.failures, func(ids []int) error {
		if err := oc.FailOSDs(cfg.loseChunks, ids...); err != nil {
			return fmt.Errorf("fail injection: %w", err)
		}
		for _, ctrl := range p.ctrls {
			for _, id := range ids {
				ctrl.SetNodeDown(id)
			}
		}
		mgr.Kick()
		fmt.Fprintf(out, "sproutstore: failed OSDs %v (lose chunks: %v)\n", ids, cfg.loseChunks)
		return nil
	})
	inject(cfg.recoveries, func(ids []int) error {
		if err := oc.RecoverOSDs(ids...); err != nil {
			return fmt.Errorf("recover injection: %w", err)
		}
		for _, ctrl := range p.ctrls {
			for _, id := range ids {
				ctrl.SetNodeUp(id)
			}
		}
		mgr.Kick()
		fmt.Fprintf(out, "sproutstore: recovered OSDs %v\n", ids)
		return nil
	})

	wg.Wait()
	injectWG.Wait()
	for _, ctrl := range p.ctrls {
		ctrl.WaitFills()
	}

	stats := r.AggregateStats()
	rs := r.Stats()
	fmt.Fprintf(out, "served %d reads (%.0f/s) across %d shards\n",
		reads.Load(), float64(reads.Load())/cfg.duration.Seconds(), cfg.controllers)
	byClass := r.AggregateReadLatencyBuckets()
	for _, c := range []struct{ label, class string }{
		{"cache-hit reads:", "cache_hit"}, {"storage reads:", "storage"}, {"degraded reads:", "degraded"},
	} {
		b := byClass[c.class]
		fmt.Fprintf(out, "  %-16s %6d  p50 %9v  p90 %9v  p99 %9v\n",
			c.label, b.Count, b.Quantile(0.50), b.Quantile(0.90), b.Quantile(0.99))
	}
	routed := map[string]int64{}
	for _, s := range rs.Shards {
		routed[s.ID] = s.Reads
	}
	for i, ctrl := range p.ctrls {
		cs := ctrl.Stats()
		fmt.Fprintf(out, "  %s: %6d routed reads, %d/%d chunks cache/OSD, storage p99 %9v\n",
			p.ids[i], routed[p.ids[i]], cs.ChunksFromCache, cs.ChunksFromDisk, ctrl.ReadLatency().Storage.P99)
	}
	fmt.Fprintf(out, "  chunks: %d from cache, %d from OSDs; %d background fills (%d dropped)\n",
		stats.ChunksFromCache, stats.ChunksFromDisk, stats.LazyFills, stats.FillsDropped)
	fmt.Fprintf(out, "  hedges: %d launched, %d wins; failovers: %d; cache rescues: %d\n",
		stats.HedgesLaunched, stats.HedgeWins, stats.FetchFailovers, stats.CacheRescues)
	fmt.Fprintf(out, "  plans: %d total, %d auto-replans, %d rejected; membership changes: %d; ring version %d\n",
		stats.PlanUpdates, stats.AutoReplans, stats.ReplanErrors, stats.MembershipChanges, rs.RingVersion)
	if rs.InvalidationsSent > 0 || rs.Fanouts > 0 {
		fmt.Fprintf(out, "  invalidations: %d sent, %d errors; fan-out p99 %v\n",
			rs.InvalidationsSent, rs.InvalidationErrors, rs.FanoutLatency.P99)
	}
	if len(cfg.failures) > 0 {
		rps := mgr.Stats()
		fmt.Fprintf(out, "  repair: %d chunks (%d KiB) reconstructed in %v, %d deferred, %d failures; degraded objects left: %d\n",
			rps.ChunksRepaired, rps.BytesRepaired>>10, rps.RepairTime.Round(time.Millisecond),
			rps.Deferred, rps.Failures, len(pool.DegradedObjects()))
		fmt.Fprintf(out, "  membership: down OSDs at exit: %v\n", p.ctrls[0].DownNodes())
	}
	return reads.Load(), errors.Join(append(readErrs, injectErrs...)...)
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

// serveMetrics exposes the bridged metric registry at addr/metrics until
// the returned server is closed. The listener is bound before it returns,
// so a taken address is an error rather than a silent missing endpoint.
func serveMetrics(addr string, src obs.Sources) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-metrics: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.NewRegistry(src).Handler())
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed once srv is closed
	fmt.Printf("sproutstore: metrics at http://%s/metrics\n", ln.Addr())
	return srv, nil
}

// logf writes one diagnostic line to stderr.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sproutstore:", err)
	os.Exit(1)
}
