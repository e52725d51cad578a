package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tcpstall/internal/fleet"
)

// tailMain follows a head's SSE event stream and prints one line per
// event: the terminal twin of the dashboard's live feed. It reconnects
// with Last-Event-ID on stream loss, so a head restart or a network
// blip loses liveness, not history still in the ring.
func tailMain(args []string) int {
	fs := flag.NewFlagSet("tapoctl tail", flag.ExitOnError)
	headAddr := fs.String("head", "localhost:7077", "fleet head host:port")
	since := fs.Uint64("since", 0, "replay retained events after this ID first (0 = all retained)")
	fs.Parse(args)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	last := *since
	for attempt := 0; ; attempt++ {
		err := tailOnce(ctx, *headAddr, &last)
		if ctx.Err() != nil {
			return 0
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "tapoctl tail: %v (reconnecting)\n", err)
		}
		select {
		case <-ctx.Done():
			return 0
		case <-time.After(2 * time.Second):
		}
	}
}

// tailOnce streams one connection's worth of events, advancing *last
// as events print so a reconnect resumes where this one stopped.
func tailOnce(ctx context.Context, headAddr string, last *uint64) error {
	url := fmt.Sprintf("http://%s/fleet/events/stream?since=%d", headAddr, *last)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("head returned %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var ev fleet.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			continue
		}
		printEvent(os.Stdout, ev)
		if ev.ID > *last {
			*last = ev.ID
		}
	}
	return sc.Err()
}

// printEvent writes one event as a line of text.
func printEvent(w io.Writer, ev fleet.Event) {
	when := "--:--:--"
	if ev.TimeMS != 0 {
		when = time.UnixMilli(ev.TimeMS).Format("15:04:05")
	}
	if st := ev.Stall; st != nil {
		fmt.Fprintf(w, "%s  %-15s %-12s %s %s %.0fms flow=%08x\n",
			when, ev.Type, ev.Member, st.Service, st.Cause, st.DurationMS, st.FlowHash)
		return
	}
	sep := ""
	if ev.Member != "" && ev.Detail != "" {
		sep = " "
	}
	fmt.Fprintf(w, "%s  %-15s %s%s%s\n", when, ev.Type, ev.Member, sep, ev.Detail)
}
