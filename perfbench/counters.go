package main

import (
	"secureblox/internal/obs"
)

// counterNames are the obs registry families read around each job, by the
// per-layer metric they feed.
var counterNames = map[string]string{
	"seccrypto.sign_ops":          "sbx_rsa_sign_ops_total",
	"seccrypto.verify_ops":        "sbx_rsa_verify_ops_total",
	"seccrypto.signpool_hits":     "sbx_signpool_hits_total",
	"seccrypto.signpool_misses":   "sbx_signpool_misses_total",
	"seccrypto.verifypool_hits":   "sbx_verifypool_hits_total",
	"seccrypto.verifypool_misses": "sbx_verifypool_misses_total",
	"engine.txns":                 "sbx_txns_total",
	"engine.rounds":               "sbx_engine_fixpoint_rounds_total",
	"engine.index_probes":         "sbx_engine_index_probes_total",
	"engine.leading_scans":        "sbx_engine_leading_scans_total",
	"engine.fullscan_fallbacks":   "sbx_engine_fullscan_fallbacks_total",
	"wire.bytes_sent":             "sbx_bytes_sent_total",
	"wire.msgs_sent":              "sbx_msgs_sent_total",
	"dist.msgs_processed":         "sbx_msgs_processed_total",
	"transport.retransmits":       "sbx_transport_retransmits_total",
	"transport.dup_drops":         "sbx_transport_dup_drops_total",
	"transport.backoffs":          "sbx_transport_backoffs_total",
	"transport.send_deferrals":    "sbx_transport_send_deferrals_total",
	"obs.spans_dropped":           "sbx_spans_dropped_total",
}

// transportCounts are the per-layer counts that must stay 0 on a memnet
// workload, which bypasses the reliable layer.
var transportCounts = []string{
	"transport.retransmits", "transport.dup_drops", "transport.backoffs", "transport.send_deferrals",
}

// counterSample is one reading of the registry.
type counterSample struct {
	counts map[string]int64
	txn    obs.HistSnapshot
}

func readCounters() counterSample {
	r := obs.Default()
	s := counterSample{counts: make(map[string]int64, len(counterNames))}
	for metric, family := range counterNames {
		s.counts[metric] = r.CounterValue(family)
	}
	s.txn = r.HistogramSnapshot("sbx_txn_duration_seconds")
	return s
}

// ratio is hits over attempts, or 0 when nothing was attempted.
func ratio(hits, attempts float64) float64 {
	if attempts == 0 {
		return 0
	}
	return hits / attempts
}

// layerMetrics turns two registry and runtime readings into the job's
// per-layer metrics. Every ratio is stored beside its base.
func layerMetrics(before, after counterSample, rt0, rt1 runtimeSample) map[string]float64 {
	m := make(map[string]float64, 48)
	for metric := range counterNames {
		m[metric] = float64(after.counts[metric] - before.counts[metric])
	}
	m["seccrypto.signpool_requests"] = m["seccrypto.signpool_hits"] + m["seccrypto.signpool_misses"]
	m["seccrypto.signpool_hit_ratio"] = ratio(m["seccrypto.signpool_hits"], m["seccrypto.signpool_requests"])
	m["seccrypto.verifypool_requests"] = m["seccrypto.verifypool_hits"] + m["seccrypto.verifypool_misses"]
	m["seccrypto.verifypool_hit_ratio"] = ratio(m["seccrypto.verifypool_hits"], m["seccrypto.verifypool_requests"])
	m["wire.bytes_per_msg"] = ratio(m["wire.bytes_sent"], m["wire.msgs_sent"])
	m["transport.retransmit_ratio"] = ratio(m["transport.retransmits"], m["wire.msgs_sent"])
	txn := after.txn.Sub(before.txn)
	m["dist.txn_p50_ms"] = txn.Quantile(0.5) * 1000
	m["dist.txn_p90_ms"] = txn.Quantile(0.9) * 1000
	m["runtime.gc_cpu_s"] = rt1.gcCPU - rt0.gcCPU
	m["runtime.alloc_mb"] = (rt1.allocBytes - rt0.allocBytes) / (1 << 20)
	m["runtime.gc_cycles"] = rt1.gcCycles - rt0.gcCycles
	return m
}

// stageMetric maps the program's stage spans to per-layer metrics.
var stageMetric = map[string]string{
	obs.StageDecode:   "wire.decode_stage_s",
	obs.StageVerify:   "seccrypto.verify_stage_s",
	obs.StageFixpoint: "engine.fixpoint_stage_s",
	obs.StageSign:     "seccrypto.sign_stage_s",
	obs.StageShip:     "dist.ship_stage_s",
}

// addStageSpans sums the program's stage spans per stage. These are wall
// time inside the stage, CPU waits included, summed over every node.
func addStageSpans(m map[string]float64, spans []obs.Span) {
	for _, metric := range stageMetric {
		m[metric] = 0
	}
	for _, s := range spans {
		if metric, ok := stageMetric[s.Stage]; ok {
			m[metric] += s.Dur.Seconds()
		}
	}
}
