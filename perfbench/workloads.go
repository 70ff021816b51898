package main

import (
	"fmt"
	"time"

	"sprout/internal/cluster"
	"sprout/internal/queue"
)

// workload is one traffic mix offered to the shared stack. Every workload
// runs the same stack code with the same serving options; workloads differ
// only in the inputs they generate and the faults they inject.
type workload struct {
	Name string
	Why  string

	Objects    int // objects ingested into the (7,4) pool
	ObjectSize int // bytes per object (a multiple of 8·k)
	// Service is OSD i's per-chunk service-time distribution, calibrated
	// for chunks of ObjectSize/k bytes.
	Service func(osd int) queue.Dist
	// CacheChunks is the functional-cache capacity in chunks, split evenly
	// across the shard controllers.
	CacheChunks int
	Rate        float64 // offered ops/s (reads plus writes)
	WriteFrac   float64 // share of ops that are whole-object overwrites
	// FlipEvery, when positive, makes a cold object top-ranked at that
	// period, so the replanner has drift to follow.
	FlipEvery time.Duration
	FailOSDs  []int // OSDs failed (losing their chunks) at window start
	Knee      bool  // the traced run also searches the read knee
}

// zipfS is the static popularity exponent of every workload.
const zipfS = 1.1

// hddMeanScale maps the paper's per-server service rates (0.0588–0.1 per
// second for 25 MB chunks) onto HDD-class per-chunk means of 2.5–4.25 ms.
const hddMeanScale = 4000

// hddService follows the paper's heterogeneous per-server rate pattern with
// exponential service, as in the paper's numerical section.
func hddService(osd int) queue.Dist {
	rates := cluster.PaperServiceRates
	return queue.NewExponential(rates[osd%len(rates)] * hddMeanScale)
}

// workloads lists every workload in the order BENCHMARK.json names them.
var workloads = []workload{
	{
		Name:        "zipf-hdd",
		Why:         "the paper's regime: p99 is set by OSD queueing and by how Algorithm 1 places cache chunks and spreads access probabilities",
		Objects:     200,
		ObjectSize:  64 << 10,
		Service:     hddService,
		CacheChunks: 200,
		Rate:        500,
		Knee:        true,
	},
	{
		Name:        "drift-overwrite",
		Why:         "10% striped overwrites of uniformly chosen objects plus a popularity flip every 3 s drive ingest, write-through, invalidation fan-out and the replanner",
		Objects:     200,
		ObjectSize:  64 << 10,
		Service:     hddService,
		CacheChunks: 200,
		Rate:        300,
		WriteFrac:   0.1,
		FlipEvery:   3 * time.Second,
	},
	{
		Name:        "degraded-repair",
		Why:         "two OSDs fail and lose their chunks at window start, so failover, degraded decode, cache rescues and repair do work",
		Objects:     200,
		ObjectSize:  64 << 10,
		Service:     hddService,
		CacheChunks: 200,
		Rate:        300,
		FailOSDs:    []int{3, 8},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// coldRank is the rank of the cold object promoted by the i-th flip: a
// distinct one from the least popular quarter each time.
func (w workload) coldRank(i int) int { return w.Objects*3/4 + i%(w.Objects/4) }
