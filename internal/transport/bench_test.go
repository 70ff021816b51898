package transport

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"sprout/internal/objstore"
	"sprout/internal/queue"
)

// benchCluster builds a zero-service-time store so the benchmarks measure
// the transport, not the emulated disks.
func benchCluster(b *testing.B, chunkSize int) *objstore.Cluster {
	b.Helper()
	cluster, err := objstore.NewCluster(objstore.ClusterConfig{
		NumOSDs:      8,
		Services:     []queue.Dist{queue.Deterministic{Value: 0}},
		RefChunkSize: int64(chunkSize),
		Seed:         1,
	})
	if err != nil {
		b.Fatal(err)
	}
	pool, err := cluster.CreatePool("data", 5, 3)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 3*chunkSize)
	rand.New(rand.NewSource(2)).Read(payload)
	if err := pool.Put(context.Background(), "obj", payload); err != nil {
		b.Fatal(err)
	}
	return cluster
}

// BenchmarkTransportBinaryGetChunk measures sequential 4 KiB chunk reads
// over the multiplexed binary protocol.
func BenchmarkTransportBinaryGetChunk(b *testing.B) {
	cluster := benchCluster(b, 4<<10)
	srv := NewServer(cluster)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(addr, time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()
	b.SetBytes(4 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := client.GetChunk(ctx, "data", "obj", i%5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransportBinaryGetChunkParallel measures pipelined chunk reads:
// many goroutines multiplexed over a small connection pool.
func BenchmarkTransportBinaryGetChunkParallel(b *testing.B) {
	cluster := benchCluster(b, 4<<10)
	srv := NewServer(cluster)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client := NewClient(addr, ClientConfig{Conns: 4})
	defer client.Close()
	ctx := context.Background()
	b.SetBytes(4 << 10)
	b.SetParallelism(16)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, _, err := client.GetChunk(ctx, "data", "obj", i%5); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkTransportEncodeRequest isolates the frame encoder.
func BenchmarkTransportEncodeRequest(b *testing.B) {
	data := make([]byte, 4<<10)
	req := Request{ID: 1, Op: OpPut, Pool: "data", Object: "object-000", Data: data}
	buf := make([]byte, 0, 5<<10)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.ID = uint64(i)
		buf = appendRequest(buf[:0], &req)
	}
	if len(buf) == 0 {
		b.Fatal("no frame produced")
	}
}
