package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"sprout/internal/objstore"
	"sprout/internal/queue"
	"sprout/internal/transport"
)

// WriteResult measures one ingest path at one offered write concurrency.
type WriteResult struct {
	Path      string // "central" (OpPut: primary encodes) or "striped" (client encodes, 2PC chunk fan-out)
	Writers   int
	Ops       int
	OpsPerSec float64
	P50ms     float64
	P99ms     float64
	Overloads int64
	Retries   int64
}

const (
	// writeBenchObject is the object payload size of the measured puts.
	writeBenchObject = 1 << 20
	// writeBenchNIC is the emulated storage-fabric bandwidth (a 4 Gbps-class
	// share, the regime the paper's HDD-backed testbed serves from). Both
	// paths run against the same fabric; central encoding moves
	// (1 + (n−1)/k)·S bytes per object across it (object in, n−1 chunks
	// re-distributed by the primary) while striped client writes move n/k·S.
	writeBenchNIC = 256 << 20
	// writeBenchWorkingSet cycles the writers over a bounded object set, so
	// the bench also exercises overwrite version flips under load.
	writeBenchWorkingSet = 32
)

// WriteThroughput A/Bs the ingest plane: the central-encode path (the seed's
// transport.Put — ship the whole object to one server that splits, encodes,
// and distributes all n chunks) against striped client-side writes (encode
// with the local SIMD coder, stage the n chunks in parallel over the pooled
// connections, two-phase commit). OSD service times are zero and the
// emulated fabric bandwidth is fixed, so the comparison isolates the byte
// volume and parallelism of the two write paths.
func WriteThroughput(cfg Config) ([]WriteResult, error) {
	cfg = cfg.withDefaults()
	writerCounts := []int{1, 8, 16}
	opsPerPoint := 320
	if cfg.Files >= 1000 { // paper scale: longer points, steadier numbers
		opsPerPoint = 1280
	}

	var out []WriteResult
	for _, path := range []string{"central", "striped"} {
		for _, writers := range writerCounts {
			res, err := writePoint(cfg, path, writers, opsPerPoint)
			if err != nil {
				return nil, err
			}
			out = append(out, res)
		}
	}
	return out, nil
}

// writeStore builds the ingest-bench store: 12 zero-service OSDs behind a
// (7,4) pool, served over the binary transport with the emulated fabric.
func writeStore(cfg Config) (*transport.Server, string, error) {
	cluster, err := objstore.NewCluster(objstore.ClusterConfig{
		NumOSDs:      12,
		Services:     []queue.Dist{queue.Deterministic{Value: 0}},
		RefChunkSize: writeBenchObject / 4,
		Seed:         cfg.Seed,
	})
	if err != nil {
		return nil, "", err
	}
	if _, err := cluster.CreatePool("ingest", 7, 4); err != nil {
		return nil, "", err
	}
	srv := transport.NewServerWithConfig(cluster, transport.ServerConfig{
		NICBandwidth: writeBenchNIC,
		StagedPutTTL: 30 * time.Second,
		// Handlers block in the emulated fabric's token bucket, so the
		// worker pool must be sized for sleeping workers, not CPU cores.
		Workers:     256,
		MaxInFlight: 1024,
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return srv, addr, nil
}

func writePoint(cfg Config, path string, writers, totalOps int) (WriteResult, error) {
	srv, addr, err := writeStore(cfg)
	if err != nil {
		return WriteResult{}, err
	}
	defer srv.Close()
	client, err := transport.DialConfig(addr, transport.ClientConfig{Conns: 4})
	if err != nil {
		return WriteResult{}, err
	}
	defer client.Close()

	ctx := context.Background()
	payload := make([]byte, writeBenchObject)
	rand.New(rand.NewSource(cfg.Seed)).Read(payload)

	var put func(op int) error
	switch path {
	case "central":
		put = func(op int) error {
			_, err := client.Put(ctx, "ingest", fmt.Sprintf("obj-%02d", op%writeBenchWorkingSet), payload)
			return err
		}
	case "striped":
		writer, err := transport.NewStripedWriter(ctx, client, "ingest")
		if err != nil {
			return WriteResult{}, err
		}
		put = func(op int) error {
			_, err := writer.Put(ctx, fmt.Sprintf("obj-%02d", op%writeBenchWorkingSet), payload)
			return err
		}
	default:
		return WriteResult{}, fmt.Errorf("bench: unknown write path %q", path)
	}

	lats, elapsed, err := closedLoop(writers, totalOps, func(_, op int) error { return put(op) })
	if err != nil {
		return WriteResult{}, err
	}
	return WriteResult{
		Path:      path,
		Writers:   writers,
		Ops:       len(lats),
		OpsPerSec: float64(len(lats)) / elapsed.Seconds(),
		P50ms:     pct(lats, 0.50, time.Millisecond),
		P99ms:     pct(lats, 0.99, time.Millisecond),
		Overloads: srv.Stats().OverloadRejections,
		Retries:   client.Stats().Retries,
	}, nil
}

// WriteTable renders WriteThroughput results, with the striped-over-central
// speedup at matching concurrency.
func WriteTable(results []WriteResult) *Table {
	t := &Table{
		Title:   "ingest plane: central-encode (OpPut) vs striped client-side writes (2PC)",
		Headers: []string{"path", "writers", "ops", "ops/s", "p50 ms", "p99 ms", "speedup", "overloads", "retries"},
		Notes: []string{
			fmt.Sprintf("1 MiB objects into a (7,4) pool over %d OSDs; overwrites cycle a %d-object working set", 12, writeBenchWorkingSet),
			fmt.Sprintf("emulated fabric: %d MiB/s shared link; OSD service time zero, so byte volume and parallelism dominate", writeBenchNIC>>20),
			"central ships S bytes and the primary re-distributes (n-1)/k*S more; striped ships n/k*S encoded client-side",
		},
	}
	base := make(map[int]float64)
	for _, r := range results {
		if r.Path == "central" {
			base[r.Writers] = r.OpsPerSec
		}
	}
	for _, r := range results {
		speedup := "1.00x"
		if b := base[r.Writers]; b > 0 && r.Path != "central" {
			speedup = fmt.Sprintf("%.2fx", r.OpsPerSec/b)
		}
		t.AddRow(
			r.Path,
			itoa(r.Writers),
			itoa(r.Ops),
			fmt.Sprintf("%.0f", r.OpsPerSec),
			fmt.Sprintf("%.2f", r.P50ms),
			fmt.Sprintf("%.2f", r.P99ms),
			speedup,
			i64toa(r.Overloads),
			i64toa(r.Retries),
		)
	}
	// Gate on the striped-over-central speedup at the highest concurrency:
	// the byte-volume advantage of client-side encoding must hold.
	maxWriters := 0
	for _, r := range results {
		if r.Path == "striped" && r.Writers > maxWriters {
			maxWriters = r.Writers
		}
	}
	for _, r := range results {
		if r.Path == "striped" && r.Writers == maxWriters {
			if b := base[r.Writers]; b > 0 {
				t.AddMetric("striped_speedup_vs_central", r.OpsPerSec/b, "ratio", true, 0)
			}
		}
	}
	return t
}
