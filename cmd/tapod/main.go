// Command tapod is the online form of tapo: a daemon that watches a
// live stream of server-side packet records, runs each flow through
// the incremental TAPO analyzer as packets arrive, and serves the
// results over HTTP — Prometheus metrics on /metrics, flow and stall
// state on the JSON admin API.
//
// Two sources are built in:
//
//	tapod -pcap capture.pcap [-speed 10]   replay a capture, paced by
//	                                       its own timestamps
//	tapod -gen web-search [-flows 200]     synthesize live traffic from
//	                                       a service model
//
// Two-phase triage (-triage, default on for -gen sources) keeps
// healthy flows on a cheap fast path — a handful of counters plus a
// bounded ring of recent records — and promotes a flow to the full
// incremental analyzer only when a stall symptom fires, replaying the
// ring so verdicts stay byte-identical to always-on analysis.
//
// Memory is bounded end to end: the flow table caps active flows (LRU
// eviction), every flow caps its analyzer records, and the per-shard
// intake queues cap queued packets; every drop is counted in /metrics.
// SIGINT/SIGTERM drain the queues, flush every live flow, and print a
// final summary before exiting.
//
// Fleet mode (-head) attaches the daemon to a tapoctl head: it
// registers for an epoch, pushes cumulative snapshots of its stall
// aggregates every -push-interval, and applies config the head sends
// back (sampling rate, record caps, triage/flight toggles) between
// batches — so one control plane steers many tapods. Each push also
// carries a bounded digest of recent stall events (-digest, default
// 256 per push) that feeds the head's live event stream and dashboard;
// the digest is visibility only and never enters the fleet totals.
//
// Self-observability: by default every flow carries a flight recorder
// (disable with -flight=false), so /debug/flows/{id}/trace serves
// per-stall evidence — the decision path and packet window behind each
// verdict. -pprof mounts the Go profiler under /debug/pprof/, /metrics
// includes the daemon's own runtime gauges, and all diagnostics go
// through log/slog (-log-format text|json).
//
// Usage:
//
//	tapod [-listen :9090] (-pcap file | -gen service) [-head http://ctl:7077] [options]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tcpstall/internal/core"
	"tcpstall/internal/fleet"
	"tcpstall/internal/flight"
	"tcpstall/internal/live"
	"tcpstall/internal/trace"
	"tcpstall/internal/triage"
	"tcpstall/internal/workload"
)

func main() {
	listen := flag.String("listen", ":9090", "HTTP listen address for /metrics and the admin API")
	pcapPath := flag.String("pcap", "", "replay this capture file as the record source")
	port := flag.Uint("port", 80, "server TCP port in the capture (identifies direction)")
	speed := flag.Float64("speed", 0, "replay/generation pace: 1 = real time, 10 = 10x, 0 = unpaced")
	gen := flag.String("gen", "", "synthesize live traffic from this service model (cloud-storage, software-download, web-search)")
	flows := flag.Int("flows", 100, "with -gen: connections to run")
	conc := flag.Int("concurrency", 16, "with -gen: simultaneous connections")
	seed := flag.Int64("seed", 1, "with -gen: workload seed")
	tau := flag.Float64("tau", 2, "stall threshold multiplier in min(tau*SRTT, RTO)")
	shards := flag.Int("shards", 0, "flow-table shards (0: one per CPU)")
	maxFlows := flag.Int("max-flows", 0, "active-flow cap across all shards (0: default 65536)")
	maxRecs := flag.Int("max-records", 0, "per-flow analyzer record cap (0: default 100000, -1: unlimited)")
	idle := flag.Duration("idle", 5*time.Minute, "evict flows idle this long")
	window := flag.Duration("window", time.Minute, "rolling aggregation window")
	shed := flag.Bool("shed", false, "drop records when shard queues fill instead of applying backpressure")
	triageMode := flag.String("triage", "auto", "two-phase triage: on, off, or auto (on with -gen, off with -pcap)")
	triageRing := flag.Int("triage-ring", 0, "triage per-flow ring of recent records (0: default 1024)")
	flightOn := flag.Bool("flight", true, "attach a flight recorder to every flow (serves /debug/flows/{id}/trace)")
	flightK := flag.Int("flight-k", 0, "flight packet-window radius around each stall gap (0: default)")
	flightRing := flag.Int("flight-ring", 0, "flight event-ring size N per flow (0: default 256); the ring grows on demand, so memory is paid per event held, up to N")
	headURL := flag.String("head", "", "fleet mode: push snapshots to this tapoctl head URL")
	memberID := flag.String("member-id", "", "with -head: fleet member identity (default: hostname + listen address)")
	pushInterval := flag.Duration("push-interval", fleet.DefaultPushInterval, "with -head: snapshot push interval")
	digest := flag.Int("digest", 0, "with -head: stall events digested per push for the head's event stream (0: default 256, -1: disable)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof profiles under /debug/pprof/")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	flag.Parse()
	logger := newLogger(*logFormat)

	if (*pcapPath == "") == (*gen == "") {
		fmt.Fprintln(os.Stderr, "tapod: exactly one of -pcap or -gen is required")
		flag.Usage()
		os.Exit(2)
	}

	cfg := core.DefaultConfig()
	cfg.Tau = *tau
	lcfg := live.Config{
		Shards:            *shards,
		MaxFlows:          *maxFlows,
		MaxRecordsPerFlow: *maxRecs,
		IdleTimeout:       *idle,
		Window:            *window,
		DigestSize:        *digest,
		Analysis:          cfg,
		OnFlow: func(reason string, a *core.FlowAnalysis) {
			// LRU displacement means the flow table is too small for
			// the offered load — the one eviction worth warning about.
			if reason == live.EvictLRU {
				logger.Warn("flow displaced by LRU pressure: raise -max-flows or lower -idle",
					"flow", a.FlowID, "records", a.DataPackets, "stalls", len(a.Stalls))
			}
		},
	}
	// Triage defaults on for live generation (the healthy-heavy case it
	// exists for) and off for pcap replay, where full always-on
	// analysis of a finite capture is usually what's wanted.
	triageOn := false
	switch *triageMode {
	case "on":
		triageOn = true
	case "auto":
		triageOn = *gen != ""
	case "off":
	default:
		fmt.Fprintf(os.Stderr, "tapod: -triage must be on, off or auto (got %q)\n", *triageMode)
		os.Exit(2)
	}
	// In fleet mode both subsystems are always CONSTRUCTED — the head
	// may enable them at runtime — and the flags set their initial
	// on/off state instead.
	if *flightOn || *headURL != "" {
		lcfg.Flight = &flight.Config{WindowK: *flightK, RingSize: *flightRing}
	}
	if triageOn || *headURL != "" {
		lcfg.Triage = &triage.Config{RingCap: *triageRing}
	}
	m := live.New(lcfg)
	if *headURL != "" {
		m.SetTriageEnabled(triageOn)
		m.SetFlightEnabled(*flightOn)
	}
	m.Start()

	mux := http.NewServeMux()
	mux.Handle("/", live.NewHandler(m))
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	srv := fleet.NewServer(*listen, mux)
	go func() {
		logger.Info("serving metrics and admin API", "listen", *listen,
			"flight", *flightOn, "pprof", *pprofOn)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			logger.Error("http server failed", "err", err)
			os.Exit(1)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ingest := func(evs []trace.RecordEvent) { m.IngestBatchWait(evs) }
	if *shed {
		ingest = func(evs []trace.RecordEvent) { m.IngestBatch(evs) }
	}

	var member *fleet.Member
	if *headURL != "" {
		id := *memberID
		if id == "" {
			host, _ := os.Hostname()
			if host == "" {
				host = "tapod"
			}
			id = host + *listen
		}
		var err error
		member, err = fleet.NewMember(fleet.MemberConfig{
			ID:           id,
			Head:         *headURL,
			Monitor:      m,
			PushInterval: *pushInterval,
		})
		if err != nil {
			logger.Error("fleet member setup failed", "err", err)
			os.Exit(2)
		}
		ingest = member.WrapIngest(ingest)
		logger.Info("fleet member mode", "head", *headURL, "id", id, "push_interval", *pushInterval)
		go func() {
			// Run exits on registration failure; keep retrying so a head
			// that comes up late (or restarts) is joined automatically.
			for ctx.Err() == nil {
				if err := member.Run(ctx); err != nil && ctx.Err() == nil {
					logger.Warn("fleet push loop error, retrying", "err", err)
					_ = sleepCtx(ctx, *pushInterval) // cancellation ends the loop
				}
			}
		}()
	}
	go watchDrops(ctx, m, logger)

	var err error
	switch {
	case *pcapPath != "":
		err = replayPcap(ctx, *pcapPath, uint16(*port), *speed, sleepCtx, ingest)
	default:
		err = generate(ctx, *gen, *seed, workload.StreamOptions{
			Flows:       *flows,
			Concurrency: *conc,
			Speed:       *speed,
		}, ingest, logger)
	}
	if err != nil && ctx.Err() == nil {
		logger.Error("record source failed", "err", err)
	}

	if ctx.Err() != nil {
		logger.Info("signal received, draining")
	}
	// Drain: flush every live flow, send the final fleet push, stop
	// the HTTP plane, report.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if member != nil {
		// Close settles the monitor and pushes the final snapshot, so
		// the head retires this epoch with exact totals.
		if err := member.Close(shutdownCtx); err != nil {
			logger.Warn("final fleet push failed", "err", err)
		}
	} else {
		m.Close()
	}
	srv.Shutdown(shutdownCtx)
	report(m, member)
}

// newLogger configures the process-wide slog logger; "json" selects
// machine-readable output for log shippers, anything else human text.
func newLogger(format string) *slog.Logger {
	var h slog.Handler
	if format == "json" {
		h = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		h = slog.NewTextHandler(os.Stderr, nil)
	}
	l := slog.New(h)
	slog.SetDefault(l)
	return l
}

// watchDrops surfaces drop accounting as it happens rather than only
// in the final report: any growth in shed records or record-cap
// truncation in a 10s interval earns one warning.
func watchDrops(ctx context.Context, m *live.Monitor, logger *slog.Logger) {
	tick := time.NewTicker(10 * time.Second)
	defer tick.Stop()
	var lastRing, lastCap uint64
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			s := m.Snapshot()
			if s.RingDrops > lastRing {
				logger.Warn("shard queues shedding records: source outpaces analysis",
					"dropped", s.RingDrops-lastRing, "total", s.RingDrops)
			}
			if s.RecordsCapDrop > lastCap {
				logger.Warn("per-flow record cap truncating flows: raise -max-records",
					"dropped", s.RecordsCapDrop-lastCap, "flows_truncated", s.FlowsTruncated)
			}
			lastRing, lastCap = s.RingDrops, s.RecordsCapDrop
		}
	}
}

// replayChunk is the most records replayPcap hands over in one batch.
const replayChunk = 512

// sleepCtx waits out d unless ctx is cancelled first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// replayPcap streams a capture through ingest in batches, paced by the
// capture's own timestamps when speed > 0 (sleep is sleepCtx outside
// tests). The buffer is handed over before every pacing sleep, so no
// record waits one out, and once more however the replay ends.
func replayPcap(ctx context.Context, path string, port uint16, speed float64,
	sleep func(context.Context, time.Duration) error, ingest func([]trace.RecordEvent)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]trace.RecordEvent, 0, replayChunk)
	flush := func() {
		if len(buf) > 0 {
			ingest(buf)
			buf = buf[:0]
		}
	}
	defer flush()
	wallStart := time.Now()
	return trace.ImportPcapRecords(f, trace.ImportConfig{ServerPort: port}, func(ev trace.RecordEvent) error {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if speed > 0 {
			target := wallStart.Add(time.Duration(float64(ev.Rec.T) / speed))
			if d := time.Until(target); d > 0 {
				flush()
				if err := sleep(ctx, d); err != nil {
					return err
				}
			}
		}
		buf = append(buf, ev)
		if len(buf) == replayChunk {
			flush()
		}
		return nil
	})
}

// generate runs a service model live into the monitor. Stream emits
// from one goroutine per connection and paces inside itself, so each
// record is handed over as a batch of one.
func generate(ctx context.Context, name string, seed int64, opt workload.StreamOptions, ingest func([]trace.RecordEvent), logger *slog.Logger) error {
	var svc workload.Service
	found := false
	for _, s := range workload.Services() {
		if s.Name == name {
			svc, found = s, true
			break
		}
	}
	if !found {
		return fmt.Errorf("unknown service %q (want cloud-storage, software-download or web-search)", name)
	}
	logger.Info("generating connections", "service", name, "flows", opt.Flows)
	n := workload.Stream(ctx, svc, seed, opt, func(ev trace.RecordEvent) { ingest([]trace.RecordEvent{ev}) })
	logger.Info("source finished", "records", n)
	return nil
}

// report prints the final snapshot as JSON on stdout.
func report(m *live.Monitor, member *fleet.Member) {
	s := m.Snapshot()
	stalls := map[string]map[string]uint64{}
	for k, n := range s.StallCount {
		svc := k.Service
		if svc == "" {
			svc = "(none)"
		}
		if stalls[svc] == nil {
			stalls[svc] = map[string]uint64{}
		}
		stalls[svc][k.Cause.String()] = n
	}
	retrans := map[string]uint64{}
	for c, n := range s.RetransCount {
		retrans[c.String()] = n
	}
	out := map[string]any{
		"uptime_s":         s.Uptime.Seconds(),
		"records_ingested": s.Ingested,
		"records_fed":      s.RecordsFed,
		"ring_drops":       s.RingDrops,
		"record_cap_drops": s.RecordsCapDrop,
		"flows_seen":       s.FlowsSeen,
		"flows_evicted":    s.FlowsEvicted,
		"flows_truncated":  s.FlowsTruncated,
		"stalls":           stalls,
		"retransmission":   retrans,
	}
	if s.TriageFastRecords > 0 || len(s.TriagePromotions) > 0 {
		out["triage"] = map[string]any{
			"fast_records":         s.TriageFastRecords,
			"promotions":           s.TriagePromotions,
			"repromotions":         s.TriageRepromotions,
			"demotions":            s.TriageDemotions,
			"truncated_promotions": s.TriageTruncatedPromotions,
			"promoted_flows":       s.PromotedFlows,
			"parked_flows":         s.ParkedFlows,
		}
	}
	if s.DurationsMS != nil && s.DurationsMS.N() > 0 {
		out["stall_duration_ms"] = map[string]any{
			"count": s.DurationsMS.N(),
			"mean":  s.DurationsMS.Mean(),
			"p50":   s.DurationsMS.Quantile(0.50),
			"p99":   s.DurationsMS.Quantile(0.99),
		}
	}
	if member != nil {
		out["fleet"] = member.Stats()
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}
