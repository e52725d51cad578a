// Command tapoctl is the fleet head: one control plane for many
// tapod members. Members register for an epoch, push cumulative
// snapshots of their stall aggregates on a heartbeat, and receive
// config updates in the responses; tapoctl merges everything into
// fleet-wide totals and serves them.
//
// Endpoints:
//
//	POST /fleet/register       member registration (epoch assignment)
//	POST /fleet/push           member snapshot push + heartbeat
//	GET  /fleet/members        every known member, live and dead
//	GET  /fleet/stalls         fleet-wide stall totals, cumulative + rolling window (?service=)
//	GET  /fleet/services       per-service rollup
//	GET  /fleet/stats          the head's own protocol accounting
//	GET  /fleet/timeseries     per-interval delta rings: fleet, services, members (?service=)
//	GET  /fleet/events         event ring backlog (?since=ID)
//	GET  /fleet/events/stream  live event stream (SSE)
//	GET  /fleet/config         current config downlink
//	POST /fleet/config         merge settings, bump the config version
//	GET  /dashboard            embedded operator dashboard
//	GET  /metrics              Prometheus text exposition (tapoctl_*, fleet_*)
//	GET  /healthz              liveness
//
// Config keys understood by members: sample_one_in,
// max_records_per_flow, triage, flight. Unknown keys are counted and
// ignored member-side, so a newer head can speak to older members.
//
// Usage:
//
//	tapoctl [-listen :7077] [-expiry 60s] [-config triage=off,sample_one_in=4]
//	tapoctl tail [-head localhost:7077] [-since 0]
//
// The tail subcommand follows a running head's event stream and
// prints one line per event — the terminal twin of the dashboard's
// live feed.
package main

import (
	"context"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tcpstall/internal/fleet"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "tail" {
		os.Exit(tailMain(os.Args[2:]))
	}
	listen := flag.String("listen", ":7077", "HTTP listen address for the fleet API and /metrics")
	expiry := flag.Duration("expiry", fleet.DefaultExpiry, "retire members silent this long")
	preset := flag.String("config", "", "initial config downlink as k=v pairs, comma-separated (e.g. triage=off,sample_one_in=4)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	flag.Parse()
	logger := newLogger(*logFormat)

	head := fleet.NewHead(fleet.HeadConfig{Expiry: *expiry})
	if *preset != "" {
		settings, err := parsePreset(*preset)
		if err != nil {
			logger.Error("bad -config", "err", err)
			os.Exit(2)
		}
		v := head.SetConfig(settings)
		logger.Info("config preset installed", "version", v, "settings", settings)
	}

	srv := fleet.NewServer(*listen, fleet.NewHandler(head))
	go func() {
		logger.Info("fleet head serving", "listen", *listen, "expiry", *expiry)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			logger.Error("http server failed", "err", err)
			os.Exit(1)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	logger.Info("signal received, shutting down")

	// Retire members that died during the run so the final state log is
	// honest, then terminate the SSE streams — Shutdown waits for open
	// requests, and an event stream never finishes on its own.
	head.Sweep()
	head.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(shutdownCtx)

	st := head.Stats()
	logger.Info("final fleet state",
		"members", st.Members,
		"registrations", st.Registrations,
		"restarts", st.Restarts,
		"expiries", st.Expiries,
		"pushes", st.Pushes,
		"rejects", st.Rejects,
		"snapshot_bytes", st.SnapshotBytes,
		"merge_p99_ms", st.MergeP99MS)
}

// parsePreset turns "k=v,k2=v2" into a settings map, inferring value
// types the way JSON would: integers and booleans become typed, the
// rest stay strings (the member's parser accepts "on"/"off" spellings
// for the boolean knobs).
func parsePreset(s string) (map[string]any, error) {
	out := map[string]any{}
	for _, pair := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || k == "" {
			return nil, &flagError{pair}
		}
		if n, err := strconv.Atoi(v); err == nil {
			out[k] = n
		} else if b, err := strconv.ParseBool(v); err == nil {
			out[k] = b
		} else {
			out[k] = v
		}
	}
	return out, nil
}

type flagError struct{ pair string }

func (e *flagError) Error() string { return "expected k=v, got " + strconv.Quote(e.pair) }

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
