package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"sprout/internal/core"
	"sprout/internal/objstore"
	"sprout/internal/optimizer"
	"sprout/internal/queue"
	"sprout/internal/repair"
	"sprout/internal/router"
	"sprout/internal/transport"
	popular "sprout/internal/workload"
)

// The stack is identical in every workload: 12 emulated OSDs with a (7,4)
// pool behind one transport server, two shard controllers behind TCP shard
// endpoints, and a router in front of them.
const (
	numOSDs   = 12
	codeN     = 7
	codeK     = 4
	numShards = 2
	poolName  = "ec"
)

// serveOptions are the sproutstore -mode ctrl defaults, shared by every
// workload and shard.
func serveOptions() core.ServeOptions {
	return core.ServeOptions{
		HedgeDelay:      10 * time.Millisecond,
		HedgeExtra:      1,
		FillWorkers:     2,
		ReplanInterval:  500 * time.Millisecond,
		ReplanThreshold: 0.5,
		Logf:            logf,
	}
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// conns is the connection-pool size of every transport client: one per
// processor the run may use.
func conns() int { return runtime.GOMAXPROCS(0) }

// hooks let a run observe or perturb the storage calls each shard makes.
type hooks struct {
	// tracer, when set, records plan and prefetch spans and wraps each
	// shard's fetcher and writer with span recorders.
	tracer *tracer
	// fetcher, when set, wraps each shard's storage fetcher (tests use it
	// to corrupt chunks).
	fetcher func(core.VersionedChunkFetcher) core.VersionedChunkFetcher
}

// stack is one running instance of the system under test.
type stack struct {
	wl      workload
	clock   clock
	cluster *objstore.Cluster
	pool    *objstore.Pool
	srv     *transport.Server
	clients []*transport.Client // per shard, to the storage server
	ctrls   []*core.Controller
	eps     []*router.PeerEndpoint
	router  *router.Router
	repair  *repair.Manager
	ver     *verifier
}

func shardID(i int) string { return fmt.Sprintf("shard-%d", i) }

func objectName(i int) string { return fmt.Sprintf("file-%04d", i) }

// buildStack starts the stack, ingests every object, plans each shard with
// Algorithm 1 and prefetches its cache. The returned stack is ready for the
// first timed op.
func buildStack(ctx context.Context, wl workload, seed int64, c clock, h hooks) (*stack, error) {
	s := &stack{wl: wl, clock: c}
	ok := false
	defer func() {
		if !ok {
			s.Close()
		}
	}()
	services := make([]queue.Dist, numOSDs)
	for i := range services {
		services[i] = wl.Service(i)
	}
	var err error
	s.cluster, err = objstore.NewCluster(objstore.ClusterConfig{
		NumOSDs:      numOSDs,
		Services:     services,
		RefChunkSize: int64(wl.ObjectSize / codeK),
		Seed:         seed,
	})
	if err != nil {
		return nil, err
	}
	if s.pool, err = s.cluster.CreatePool(poolName, codeN, codeK); err != nil {
		return nil, err
	}
	s.srv = transport.NewServerWithConfig(s.cluster, transport.ServerConfig{StagedPutTTL: time.Minute})
	addr, err := s.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	for i := 0; i < numShards; i++ {
		cli, err := transport.DialConfig(addr, transport.ClientConfig{Conns: conns()})
		if err != nil {
			return nil, err
		}
		s.clients = append(s.clients, cli)
	}
	s.ver = newVerifier(wl.Objects)
	if err := s.ingest(ctx, seed); err != nil {
		return nil, err
	}

	lambdas := popular.Zipf(wl.Objects, zipfS, wl.Rate*(1-wl.WriteFrac))
	clu, err := s.pool.ClusterView(lambdas)
	if err != nil {
		return nil, err
	}
	s.router = router.New(router.Options{FanoutWorkers: 2, Client: transport.ClientConfig{Conns: conns()}})
	for i := 0; i < numShards; i++ {
		ctrl, err := core.NewControllerWith(clu, wl.CacheChunks/numShards, optimizer.Options{MaxOuterIter: 10}, serveOptions(), int64(i+1))
		if err != nil {
			return nil, err
		}
		s.ctrls = append(s.ctrls, ctrl)
	}
	fetchers := make([]core.VersionedChunkFetcher, numShards)
	for i, ctrl := range s.ctrls {
		writer, err := transport.NewStripedWriter(ctx, s.clients[i], poolName)
		if err != nil {
			return nil, err
		}
		var f core.VersionedChunkFetcher = &transport.RemoteFetcher{Client: s.clients[i], Pool: poolName}
		var w core.DataChunkWriter = writer
		if h.fetcher != nil {
			f = h.fetcher(f)
		}
		if h.tracer != nil {
			f = &tracedFetcher{inner: f, t: h.tracer, shard: i}
			w = &tracedWriter{inner: w, t: h.tracer, shard: i}
		}
		fetchers[i] = f
		ep, err := router.ServeShard(ctrl, f, w, s.router, "127.0.0.1:0", transport.ServerConfig{StagedPutTTL: time.Minute})
		if err != nil {
			return nil, err
		}
		s.eps = append(s.eps, ep)
		if err := s.router.AddShard(router.Shard{ID: shardID(i), Addr: ep.Addr()}); err != nil {
			return nil, err
		}
	}
	// Each shard plans its own slice of the namespace and fills its cache,
	// concurrently, as separate shard processes would.
	errs := make([]error, numShards)
	var wg sync.WaitGroup
	for i, ctrl := range s.ctrls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := c.now()
			if _, err := ctrl.PlanTimeBin(s.router.MaskLambdas(shardID(i), lambdas)); err != nil {
				errs[i] = fmt.Errorf("plan %s: %w", shardID(i), err)
				return
			}
			planned := c.now()
			if err := ctrl.PrefetchCache(ctx, fetchers[i]); err != nil {
				errs[i] = fmt.Errorf("prefetch %s: %w", shardID(i), err)
				return
			}
			if h.tracer != nil {
				h.tracer.record(spanPlan, i, -1, start, planned)
				h.tracer.record(spanPrefetch, i, -1, planned, c.now())
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	s.repair = repair.NewManager(s.pool, repair.Config{Workers: 2, ScanInterval: 100 * time.Millisecond, Logf: logf})
	s.repair.Start()
	ok = true
	return s, nil
}

// ingest writes every object's initial version through the striped
// two-phase write path, with one writer per processor.
func (s *stack) ingest(ctx context.Context, seed int64) error {
	writer, err := transport.NewStripedWriter(ctx, s.clients[0], poolName)
	if err != nil {
		return err
	}
	workers := conns()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, s.wl.ObjectSize)
			for obj := w; obj < s.wl.Objects; obj += workers {
				fillPayload(buf, uint64(seed)<<32|uint64(obj))
				if _, err := writer.Put(ctx, objectName(obj), buf); err != nil {
					errs[w] = fmt.Errorf("ingest %s: %w", objectName(obj), err)
					return
				}
				s.ver.ingested(obj, buf)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// failOSDs fails the given OSDs, dropping their chunks, tells every shard
// controller, and wakes the repair plane.
func (s *stack) failOSDs(ids []int) error {
	if err := s.cluster.FailOSDs(true, ids...); err != nil {
		return err
	}
	for _, ctrl := range s.ctrls {
		for _, id := range ids {
			ctrl.SetNodeDown(id)
		}
	}
	s.repair.Kick()
	return nil
}

// decodeAll reads every object back through a full pool decode and checks
// it against its newest acknowledged version.
func (s *stack) decodeAll(ctx context.Context) error {
	for obj := 0; obj < s.wl.Objects; obj++ {
		data, err := s.pool.Get(ctx, objectName(obj))
		if err != nil {
			return fmt.Errorf("final decode of %s: %w", objectName(obj), err)
		}
		if s.ver.sum(data) != s.ver.latest(obj) {
			return fmt.Errorf("final decode of %s: bytes differ from its newest acknowledged version", objectName(obj))
		}
	}
	return nil
}

// Close stops every part of the stack and waits for its goroutines.
func (s *stack) Close() {
	if s.router != nil {
		_ = s.router.Close()
	}
	for _, ep := range s.eps {
		_ = ep.Close()
	}
	for _, ctrl := range s.ctrls {
		_ = ctrl.Close()
	}
	if s.repair != nil {
		s.repair.Close()
	}
	for _, cli := range s.clients {
		_ = cli.Close()
	}
	if s.srv != nil {
		_ = s.srv.Close()
	}
}
