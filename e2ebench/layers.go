package main

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// perLayer names every per-layer metric a traced run prints, in the
// order BENCHMARK.json lists them; layers.json maps each to the layer
// it measures and the end-to-end metric it should move. A workload
// that does not exercise a layer reports its metrics as 0.
var perLayer = []string{
	"latency_p99_ms",
	"failed_share",
	"trace.overhead_share",
	"benchsuite.extract_ms",
	"experiments.generate_s",
	"experiments.fold_s",
	"core.batch_s",
	"analyzer.runs",
	"analyzer.outer_rounds",
	"fp.inner_iterations",
	"fp.breakpoint_jumps",
	"fp.jump_share",
	"curves.builds",
	"abort.deadline_miss",
	"abort.nonconvergence",
	"core.memo_hit_share",
	"core.curve_memo_hit_share",
	"core.memo_misses_per_op",
	"core.curve_memo_misses_per_op",
	"core.memo_evictions",
	"server.stage_queue_us.p50",
	"server.stage_queue_us.p99",
	"server.stage_cache_us.p50",
	"server.stage_cache_us.p99",
	"server.stage_coalesce_us.p50",
	"server.stage_coalesce_us.p99",
	"server.stage_analyze_us.p50",
	"server.stage_analyze_us.p99",
	"server.stage_marshal_us.p50",
	"server.stage_marshal_us.p99",
	"http.handler_us.p50",
	"http.handler_us.p99",
	"server.unstaged_us.p50",
	"server.unstaged_us.p99",
	"http.transport_us.p50",
	"http.transport_us.p99",
	"server.cache_hit_share",
	"server.coalesced_share",
	"server.analyses_per_request",
	"server.shed_share",
	"server.reconcile_violations",
	"cluster.proxied_share",
	"server.stage_proxy_us.p50",
	"server.stage_proxy_us.p99",
	"route.owner.latency_p50_ms",
	"route.owner.latency_p99_ms",
	"route.proxied.latency_p50_ms",
	"route.proxied.latency_p99_ms",
	"server.peer_errors",
	"server.peer_degraded",
	"serve.fresh.latency_p50_ms",
	"serve.fresh.latency_p99_ms",
	"serve.dup.latency_p50_ms",
	"serve.dup.latency_p99_ms",
	"serve.delta.latency_p50_ms",
	"serve.delta.latency_p99_ms",
	"serve.lateness_p99_ms",
	"serve.max_rate_rps",
}

// reqRecord is one client request as the load generator saw it.
type reqRecord struct {
	id              string
	node            int
	due, sent, done time.Time
	status          int
	failed          bool // any outcome but a correct 200
	route           int  // routeOwner or routeProxied (serve)
}

const (
	routeOwner = iota + 1
	routeProxied
)

func (r reqRecord) rtt() time.Duration { return r.done.Sub(r.sent) }

// fillAbsent reports every per-layer metric the workload did not
// measure as 0: its layer is not on this workload's path.
func fillAbsent(rep *report) {
	for _, name := range perLayer {
		if _, ok := rep.metrics[name]; !ok {
			rep.setNote(name, 0, unitOf(name), 0, "layer not exercised by this workload")
		}
	}
}

// unitOf infers a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.Contains(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_share"):
		return "share"
	case strings.HasSuffix(name, "_rps"):
		return "1/s"
	case strings.HasSuffix(name, "_per_op"), strings.HasSuffix(name, "_per_request"):
		return "1/op"
	}
	switch name {
	case "analyzer.runs", "analyzer.outer_rounds", "fp.inner_iterations", "fp.breakpoint_jumps",
		"curves.builds", "abort.deadline_miss", "abort.nonconvergence":
		return "1/op"
	}
	return "count"
}

// serverLayers derives the engine, server and cluster per-layer
// metrics of the traced segments: stage quantiles from the fleet-summed
// /metrics histogram deltas, counter shares and engine counters per
// request from the counter deltas, and the
// handler, unstaged and transport times from the middleware's handler
// spans, the access-log stage durations and the client round trips.
// It also runs the stage reconciliation on every recorded request:
// client RTT >= handler span >= sum of the server's stages, and for a
// relayed request, the edge's proxy stage >= the owner's handler span
// >= the owner's stages.
func serverLayers(rep *report, delta metricsDoc, recs []reqRecord, rl *reqLog, owner func(reqRecord) int) {
	for _, st := range []string{"queue", "cache", "coalesce", "analyze", "marshal", "proxy"} {
		name := "server.stage_" + st + "_us"
		d := delta.Histograms[name]
		rep.set(name+".p50", d.Quantile(0.50), "us", int(d.Count))
		rep.set(name+".p99", d.Quantile(0.99), "us", int(d.Count))
	}
	count := func(c telemetry.Counter) float64 { return float64(delta.Counters[c.String()]) }
	reqs := count(telemetry.CtrServerRequests)
	rep.set("server.cache_hit_share", share(count(telemetry.CtrServerCacheHits), reqs), "share", int(reqs))
	rep.set("server.coalesced_share", share(count(telemetry.CtrServerCoalesced), reqs), "share", int(reqs))
	rep.set("server.analyses_per_request", share(count(telemetry.CtrServerAnalyses), reqs), "1/op", int(reqs))
	rep.set("server.shed_share", share(count(telemetry.CtrServerShed), float64(len(recs))), "share", len(recs))
	rep.set("cluster.proxied_share", share(count(telemetry.CtrServerPeerProxied), float64(len(recs))), "share", len(recs))
	rep.set("server.peer_errors", count(telemetry.CtrServerPeerErrors), "count", len(recs))
	rep.set("server.peer_degraded", count(telemetry.CtrServerPeerDegraded), "count", len(recs))
	engineCounters(rep, func(c telemetry.Counter) int64 { return delta.Counters[c.String()] }, len(recs))

	rl.mu.Lock()
	defer rl.mu.Unlock()
	var handler, unstaged, transport []float64
	violations := 0
	var first string
	violate := func(format string, args ...any) {
		violations++
		if first == "" {
			first = fmt.Sprintf(format, args...)
		}
	}
	for _, r := range recs {
		if r.id == "" || r.status != http.StatusOK {
			continue
		}
		h, ok := rl.handlers[nodeID{r.node, r.id}]
		st, sok := rl.stages[nodeID{r.node, r.id}]
		if !ok || !sok {
			violate("request %s: no handler span or access-log line on node %d", r.id, r.node)
			continue
		}
		sum := stageSum(st)
		handler = append(handler, us(h))
		unstaged = append(unstaged, us(h-sum))
		transport = append(transport, us(r.rtt()-h))
		if r.rtt() < h || h < sum {
			violate("request %s: rtt %v, handler %v, stages %v", r.id, r.rtt(), h, sum)
		}
		if p, relayed := st["proxy"]; relayed {
			o := owner(r)
			oh, ok := rl.handlers[nodeID{o, r.id}]
			ost, sok := rl.stages[nodeID{o, r.id}]
			if !ok || !sok {
				// A relay whose owner never answered degraded to local
				// compute; the peer_* counters report that.
				continue
			}
			if time.Duration(p)*time.Microsecond+time.Microsecond < oh || oh < stageSum(ost) {
				violate("request %s: proxy stage %dus, owner handler %v, owner stages %v", r.id, p, oh, stageSum(ost))
			}
		}
	}
	hd, ud, td := summarize(handler), summarize(unstaged), summarize(transport)
	rep.setDist("http.handler_us.p50", "http.handler_us.p99", hd, "us")
	rep.setDist("server.unstaged_us.p50", "server.unstaged_us.p99", ud, "us")
	rep.setDist("http.transport_us.p50", "http.transport_us.p99", td, "us")
	rep.set("server.reconcile_violations", float64(violations), "count", len(handler))
	if violations > 0 {
		rep.failed += violations
		rep.problem("stage reconciliation failed on %d requests; first: %s", violations, first)
	}
}

// stageSum adds up one access-log line's stage durations.
func stageSum(st map[string]int64) time.Duration {
	var sum int64
	for _, v := range st {
		sum += v
	}
	return time.Duration(sum) * time.Microsecond
}

// crossCheck reconciles the client's own counts with the fleet-summed
// /metrics deltas of a measured window: every request that got a 200,
// 429 or 504 passed through server.requests exactly once (a relayed
// request is counted by its owner only), every 429 is a server.shed,
// and no relay degraded.
func crossCheck(rep *report, delta metricsDoc, recs []reqRecord) {
	var expected, shed int64
	for _, r := range recs {
		switch r.status {
		case http.StatusOK, http.StatusGatewayTimeout:
			expected++
		case http.StatusTooManyRequests:
			expected++
			shed++
		}
	}
	d := func(name string) int64 { return delta.Counters[name] }
	if got := d("server.requests"); got != expected {
		rep.problem("accounting: servers counted %d requests, client expected %d", got, expected)
	}
	if got := d("server.shed"); got != shed {
		rep.problem("accounting: servers shed %d requests, client saw %d", got, shed)
	}
	if got := d("server.peer_degraded") + d("server.peer_errors"); got != 0 {
		rep.problem("accounting: %d relays failed or degraded on a healthy fleet", got)
	}
}

// finishTrace prints the per-layer self-time table and writes the
// Chrome trace.
func finishTrace(cfg runConfig, rep *report, tr *tracer) {
	rep.set("trace.spans", float64(tr.count()), "count", tr.count())
	fmt.Fprintln(cfg.stdout, "per-layer self time (traced segment):")
	writeSelfTimes(cfg.stdout, tr.selfTimes())
	path, err := tr.export(cfg.outdir+"/traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err != nil {
		fmt.Fprintf(cfg.stdout, "trace export failed: %v\n", err)
		return
	}
	fmt.Fprintf(cfg.stdout, "chrome trace: %s\n", path)
}
