package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"sprout/internal/objstore"
	"sprout/internal/queue"
	"sprout/internal/transport"
)

// TransportResult measures the multiplexed binary transport at one offered
// concurrency: chunk reads per second and client-observed latency
// percentiles.
type TransportResult struct {
	Clients   int // concurrent client goroutines
	Conns     int // TCP connections used
	Ops       int
	OpsPerSec float64
	P50us     float64
	P99us     float64
	Overloads int64 // server-side overload rejections during the point
	Retries   int64 // client retries
}

// transportBenchChunk is the chunk size of the measured GetChunk op; small
// enough that framing and syscalls dominate, matching the paper's many-
// small-requests serving regime.
const transportBenchChunk = 4 << 10

// TransportThroughput measures the multiplexed binary transport (pooled
// connections, pipelining, bounded server worker pool) on a
// zero-service-time store, so the numbers isolate the network data plane.
// Each point performs a fixed number of 4 KiB chunk reads split across the
// client goroutines.
func TransportThroughput(cfg Config) ([]TransportResult, error) {
	cfg = cfg.withDefaults()
	clientCounts := []int{1, 8, 64}
	opsPerPoint := 4000
	if cfg.Files >= 1000 { // paper scale: longer points, steadier numbers
		opsPerPoint = 16000
	}

	var out []TransportResult
	for _, clients := range clientCounts {
		res, err := transportPoint(cfg, clients, opsPerPoint)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// transportStore builds the zero-service-time store with one hot object in
// a (5,3) pool, so GetChunk serves 4 KiB chunks with no emulated disk wait.
func transportStore(cfg Config) (*objstore.Cluster, error) {
	cluster, err := objstore.NewCluster(objstore.ClusterConfig{
		NumOSDs:      8,
		Services:     []queue.Dist{queue.Deterministic{Value: 0}},
		RefChunkSize: transportBenchChunk,
		Seed:         cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	pool, err := cluster.CreatePool("data", 5, 3)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, 3*transportBenchChunk)
	rand.New(rand.NewSource(cfg.Seed)).Read(payload)
	if err := pool.Put(context.Background(), "hot", payload); err != nil {
		return nil, err
	}
	return cluster, nil
}

func transportPoint(cfg Config, clients, totalOps int) (TransportResult, error) {
	cluster, err := transportStore(cfg)
	if err != nil {
		return TransportResult{}, err
	}
	srv := transport.NewServer(cluster)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return TransportResult{}, err
	}
	defer srv.Close()

	// One multiplexed connection per two cores batches best: each extra
	// connection adds reader/writer goroutines that fragment the write
	// batches without adding parallelism the CPUs don't have.
	poolConns := runtime.GOMAXPROCS(0) / 2
	if poolConns < 1 {
		poolConns = 1
	}
	if poolConns > 4 {
		poolConns = 4
	}
	if poolConns > clients {
		poolConns = clients
	}
	client, err := transport.DialConfig(addr, transport.ClientConfig{Conns: poolConns})
	if err != nil {
		return TransportResult{}, err
	}
	defer client.Close()

	ctx := context.Background()
	lats, elapsed, err := closedLoop(clients, totalOps, func(_, op int) error {
		_, _, err := client.GetChunk(ctx, "data", "hot", op%5)
		return err
	})
	if err != nil {
		return TransportResult{}, err
	}
	return TransportResult{
		Clients:   clients,
		Conns:     poolConns,
		Ops:       len(lats),
		OpsPerSec: float64(len(lats)) / elapsed.Seconds(),
		P50us:     pct(lats, 0.50, time.Microsecond),
		P99us:     pct(lats, 0.99, time.Microsecond),
		Overloads: srv.Stats().OverloadRejections,
		Retries:   client.Stats().Retries,
	}, nil
}

// TransportTable renders TransportThroughput results.
func TransportTable(results []TransportResult) *Table {
	t := &Table{
		Title:   "transport data plane: 4KiB chunk reads over the multiplexed binary transport",
		Headers: []string{"clients", "conns", "ops", "ops/s", "p50 us", "p99 us", "overloads", "retries"},
		Notes: []string{
			"zero-service-time store: numbers isolate framing, syscalls, and scheduling",
			"every client is multiplexed over a small pooled connection set",
		},
	}
	for _, r := range results {
		t.AddRow(
			itoa(r.Clients),
			itoa(r.Conns),
			itoa(r.Ops),
			fmt.Sprintf("%.0f", r.OpsPerSec),
			fmt.Sprintf("%.0f", r.P50us),
			fmt.Sprintf("%.0f", r.P99us),
			i64toa(r.Overloads),
			i64toa(r.Retries),
		)
	}
	return t
}
