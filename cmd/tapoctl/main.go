// Command tapoctl is the fleet head: one control plane for many
// tapod members. Members register for an epoch and push cumulative
// snapshots of their stall aggregates on a heartbeat; tapoctl merges
// everything into fleet-wide totals and serves them. Each member is
// configured by its own tapod flags; the head sends nothing back but
// acceptance.
//
// Endpoints:
//
//	POST /fleet/register       member registration (epoch assignment)
//	POST /fleet/push           member snapshot push + heartbeat (binary Snapshot)
//	GET  /fleet/members        every known member, live and dead
//	GET  /fleet/stalls         fleet-wide stall totals, cumulative + the last minute, summed from the series rings (?service=)
//	GET  /fleet/services       per-service rollup
//	GET  /fleet/stats          the head's own protocol accounting
//	GET  /fleet/timeseries     per-interval delta rings: fleet, services, members (?service=)
//	GET  /fleet/events         event ring backlog (?since=ID)
//	GET  /fleet/events/stream  live event stream (SSE)
//	GET  /dashboard            embedded operator dashboard
//	GET  /metrics              Prometheus text exposition (tapoctl_*, fleet_*)
//	GET  /healthz              liveness
//
// Usage:
//
//	tapoctl [-listen :7077] [-expiry 60s] [-log-format text|json]
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
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	flag.Parse()
	logger := newLogger(*logFormat)

	head := fleet.NewHead(fleet.HeadConfig{Expiry: *expiry})

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
