package main

import (
	"math"

	"sprout/internal/core"
)

// layerMetrics computes every per-layer metric of a traced window from the
// window deltas of the layers' Stats() calls and from the linked spans.
// refCPU is the untraced reference window's CPU per op.
func (s *stack) layerMetrics(m *measured, sum traceSummary, refCPU float64) map[string]metricValue {
	b, a := m.before, m.after
	windowS := float64(a.at-b.at) / 1e9
	out := map[string]metricValue{}
	for _, d := range perLayer {
		out[d.Name] = metricValue{0, d.Unit}
	}
	set := func(name string, v float64) { out[name] = metricValue{v, out[name].Unit} }

	writes := m.w.stats(true, math.MinInt64, math.MaxInt64)
	if writes.attempted > 0 {
		set("write_p50_ms", writes.p50)
		set("write_p99_ms", writes.p99)
		set("write_fail_frac", ratio(float64(writes.failed), float64(writes.attempted)))
	}
	set("repair_s", m.repairS)

	// router
	var routed, hottest int64
	for _, sa := range a.router.Shards {
		n := sa.Reads
		for _, sb := range b.router.Shards {
			if sb.ID == sa.ID {
				n -= sb.Reads
			}
		}
		routed += n
		hottest = max(hottest, n)
	}
	set("router.shard_skew", ratio(float64(hottest), float64(routed))*numShards)
	set("router.fanout_ms_p99", float64(a.fanout.Sub(b.fanout).Quantile(0.99))/1e6)
	set("router.inv_errors", float64(a.router.InvalidationErrors-b.router.InvalidationErrors))

	// core and cache
	ca, cb := sumCtrl(a.ctrl), sumCtrl(b.ctrl)
	reads := float64(ca.Reads - cb.Reads)
	var readSumNS, boundSumNS float64
	var readHist core.HistogramBuckets
	for i := range a.reads {
		d := a.reads[i].Sub(b.reads[i])
		readHist = readHist.Add(d)
		readSumNS += float64(d.SumNS)
		boundSumNS += float64(d.Count) * s.ctrls[i].Plan().Objective * 1e9
	}
	coreP50 := float64(readHist.Quantile(0.50)) / 1e3
	set("core.read_us_p50", coreP50)
	set("core.read_us_p99", float64(readHist.Quantile(0.99))/1e3)
	if len(sum.readNS) > 0 {
		set("core.hop_us_p50", percentile(sum.readNS, 0.5)/1e3-coreP50)
		set("core.self_us_p50", percentile(sum.readSelfNS, 0.5)/1e3)
	}
	set("core.storage_chunks_per_read", ratio(float64(ca.ChunksFromDisk-cb.ChunksFromDisk), reads))
	hedges := float64(ca.HedgesLaunched - cb.HedgesLaunched)
	set("core.hedges_per_read", ratio(hedges, reads))
	set("core.hedge_win_frac", ratio(float64(ca.HedgeWins-cb.HedgeWins), hedges))
	dropped := float64(ca.FillsDropped - cb.FillsDropped)
	set("core.fill_drop_frac", ratio(dropped, dropped+float64(ca.FillsEnqueued-cb.FillsEnqueued)))
	set("core.stale_reloads", float64(ca.StaleCacheReloads-cb.StaleCacheReloads))
	set("core.auto_replans", float64(ca.AutoReplans-cb.AutoReplans))
	set("core.failovers", float64(ca.FetchFailovers-cb.FetchFailovers))
	set("core.cache_rescues", float64(ca.CacheRescues-cb.CacheRescues))
	set("cache.cache_only_frac", ratio(float64(ca.CacheOnlyReads-cb.CacheOnlyReads), reads))
	fromCache := float64(ca.ChunksFromCache - cb.ChunksFromCache)
	set("cache.chunk_hit_frac", ratio(fromCache, fromCache+float64(ca.ChunksFromDisk-cb.ChunksFromDisk)))
	set("cache.invalidations_per_write", ratio(float64(ca.CacheInvalidations-cb.CacheInvalidations), float64(ca.Writes-cb.Writes)))

	// objstore
	var busy, served float64
	utils := make([]float64, len(a.osds))
	for i := range a.osds {
		db := float64(a.osds[i].Busy - b.osds[i].Busy)
		busy += db
		served += float64(a.osds[i].Served - b.osds[i].Served)
		utils[i] = db / 1e9 / windowS
	}
	cv, top := spread(utils)
	set("objstore.osd_util_max", top)
	set("objstore.osd_util_cv", cv)
	serviceUS := ratio(busy, served) / 1e3
	set("objstore.service_ms_mean", serviceUS/1e3)

	// transport
	if len(sum.fetchNS) > 0 {
		var total float64
		for _, f := range sum.fetchNS {
			total += f
		}
		set("transport.fetch_overhead_us", total/float64(len(sum.fetchNS))/1e3-serviceUS)
		set("transport.fetch_us_p50", percentile(sum.fetchNS, 0.5)/1e3)
		set("transport.fetch_us_p99", percentile(sum.fetchNS, 0.99)/1e3)
	}
	set("transport.frames_per_read", ratio(float64(a.servers.FramesSent+a.servers.FramesReceived-b.servers.FramesSent-b.servers.FramesReceived), reads))
	set("transport.bytes_per_read", ratio(float64(a.servers.BytesSent+a.servers.BytesReceived-b.servers.BytesSent-b.servers.BytesReceived), reads))
	set("transport.retries", float64(a.clients.Retries-b.clients.Retries))
	set("transport.overload_rejections", float64(a.servers.OverloadRejections-b.servers.OverloadRejections))
	set("transport.deadline_rejections", float64(a.servers.DeadlineRejections-b.servers.DeadlineRejections))

	// optimizer
	if len(sum.planNS) > 0 {
		var total float64
		for _, p := range sum.planNS {
			total += p
		}
		set("optimizer.plan_ms", total/float64(len(sum.planNS))/1e6)
	}
	set("optimizer.bound_ratio", ratio(readSumNS, boundSumNS))

	// erasure
	hits := float64(a.coder.PlanHits - b.coder.PlanHits)
	set("erasure.decode_plan_hit_frac", ratio(hits, hits+float64(a.coder.PlanMisses-b.coder.PlanMisses)))

	// repair
	if m.repairS > 0 {
		set("repair.chunks_per_s", float64(a.repair.ChunksRepaired-b.repair.ChunksRepaired)/m.repairS)
		set("repair.fg_read_p99_ms", m.w.stats(false, m.repairFrom, m.repairTo).p99)
	}
	set("repair.failures", float64(a.repair.Failures-b.repair.Failures))
	set("repair.deferred", float64(a.repair.Deferred-b.repair.Deferred))

	// runtime
	att, failed := m.counts()
	ops := float64(att - failed)
	set("runtime.gc_per_kop", ratio(float64(a.proc.gcs-b.proc.gcs), ops/1000))
	set("runtime.gc_pause_ms_p99", pauseP99(b.proc.gcPauses, a.proc.gcPauses))

	// generator and trace
	_, lateP99, lateMax := m.w.lateness()
	set("gen.late_ms_p99", lateP99)
	set("gen.late_ms_max", lateMax)
	set("gen.inflight_max", float64(m.w.inflight))
	var steal hostSteal
	steal.add(m.host0, m.host1)
	set("host.steal_frac", steal.frac())
	set("trace.overhead_frac", ratio(m.cpuPerOp(), refCPU)-1)
	set("trace.unlinked_frac", ratio(float64(sum.unlinked), float64(sum.linked+sum.unlinked)))
	return out
}

// spread returns the coefficient of variation and the maximum of xs.
func spread(xs []float64) (cv, top float64) {
	var mean float64
	for _, x := range xs {
		mean += x
		top = max(top, x)
	}
	mean /= float64(len(xs))
	var v float64
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	return ratio(math.Sqrt(v/float64(len(xs))), mean), top
}
