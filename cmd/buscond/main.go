// Command buscond serves the WCRT analysis engine over HTTP — the
// analysis-as-a-service front end (internal/server). It canonicalizes
// and caches requests, coalesces concurrent duplicates, sheds load
// beyond a bounded queue, and drains gracefully on SIGTERM/SIGINT
// (in-flight requests finish, then the process exits 0).
//
// Usage:
//
//	buscond -addr 127.0.0.1:8080 -workers 8 -mem-budget 64MiB
//
// Several daemons become a fleet with shard-owner request routing
// (internal/cluster): start each with the full member list and its own
// address, and every canonical request key is analyzed on exactly one
// node whose cache serves the whole fleet:
//
//	buscond -addr 127.0.0.1:8080 -peers 127.0.0.1:8080,127.0.0.1:8081
//	buscond -addr 127.0.0.1:8081 -peers 127.0.0.1:8080,127.0.0.1:8081
//
// Endpoints: POST /v1/analyze, POST /v1/analyze/delta, GET /healthz,
// GET /metrics, GET /debug/pprof/*. See DESIGN.md §11–§12 for the wire format and
// §14 for the fleet design; the README has quickstarts for both.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// byteSize is a flag.Value holding a byte count written as an integer
// with an optional binary unit: 4194304, 4096KiB, 4MiB and 1GiB all
// parse; a leading minus sign is kept.
type byteSize int64

var byteUnits = []struct {
	suffix string
	scale  int64
}{{"GiB", 1 << 30}, {"MiB", 1 << 20}, {"KiB", 1 << 10}, {"B", 1}}

func (b *byteSize) Set(s string) error {
	num, scale := s, int64(1)
	for _, u := range byteUnits {
		if strings.HasSuffix(s, u.suffix) {
			num, scale = strings.TrimSuffix(s, u.suffix), u.scale
			break
		}
	}
	n, err := strconv.ParseInt(num, 10, 64)
	if err != nil || n > math.MaxInt64/scale || n < math.MinInt64/scale {
		return fmt.Errorf("%q is not a byte count (an integer, optionally followed by B, KiB, MiB or GiB)", s)
	}
	*b = byteSize(n * scale)
	return nil
}

func (b *byteSize) String() string { return strconv.FormatInt(int64(*b), 10) }

// run starts the daemon against explicit streams and blocks until ctx
// is canceled (the signal path) or the listener fails; tests drive it
// end to end. The returned code is the process exit code: 0 after a
// clean drain, 1 on setup or serve errors.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("buscond", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	workers := fs.Int("workers", 0, "concurrent engine invocations (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "requests allowed to wait for a worker before shedding (0 = 2x workers, negative = none)")
	var memBudget byteSize
	fs.Var(&memBudget, "mem-budget", "bytes kept across requests (e.g. 64MiB): 3/5 request store (cached results and delta bases), 2/5 engine table memo (0 = 20MiB, negative = disable caching, /v1/analyze/delta and memoization)")
	timeout := fs.Duration("timeout", 0, "per-request deadline while queued (0 = none)")
	peers := fs.String("peers", "", "comma-separated fleet member addresses (host:port or http:// URLs); enables shard-owner request routing")
	self := fs.String("self", "", "this node's address within -peers (default: -addr; required when -addr binds port 0)")
	peerTimeout := fs.Duration("peer-timeout", 0, "per-proxy round-trip deadline before degrading to local compute (0 = 1m)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight requests on shutdown")
	metrics := fs.Bool("metrics", false, "print the counter summary on exit")
	accessLog := fs.String("access-log", "stdout", "access-log destination: stdout, stderr, off, or a file path")
	logFormat := fs.String("log-format", "json", "access-log format: json or text")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON file with request spans on exit")
	statsEvery := fs.Duration("stats-every", 0, "print rolling request-rate/latency lines to stderr at this interval (0 = off)")
	verbose := fs.Bool("v", false, "enable debug logging")
	if err := fs.Parse(args); err != nil {
		return 1, err
	}
	if *logFormat != "json" && *logFormat != "text" {
		return 1, fmt.Errorf("-log-format must be json or text, got %q", *logFormat)
	}
	var ring *cluster.Ring
	if *peers != "" {
		selfAddr := *self
		if selfAddr == "" {
			selfAddr = *addr
		}
		var rerr error
		ring, rerr = cluster.NewRing(selfAddr, strings.Split(*peers, ","), *peerTimeout)
		if rerr != nil {
			return 1, rerr
		}
	} else if *self != "" {
		return 1, fmt.Errorf("-self only makes sense with -peers")
	}

	sess, err := telemetry.StartSession(telemetry.SessionOptions{
		Tool: "buscond", Metrics: *metrics, TracePath: *tracePath, Verbose: *verbose, Out: stderr,
	})
	if err != nil {
		return 1, err
	}
	defer func() {
		if cerr := sess.Close(); cerr != nil {
			fmt.Fprintln(stderr, "buscond:", cerr)
		}
	}()
	obs := sess.Observer()
	if obs == nil {
		// The server counters are cheap atomics; keep them on
		// unconditionally so /metrics always has data.
		obs = telemetry.New()
	}
	if obs.Metrics == nil {
		obs.Metrics = telemetry.NewMetrics()
	}

	var accessW io.Writer
	var accessFile *os.File
	switch *accessLog {
	case "off", "":
	case "stdout":
		accessW = stdout
	case "stderr":
		accessW = stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return 1, fmt.Errorf("access log: %w", err)
		}
		accessFile = f
		accessW = f
		defer accessFile.Close()
	}

	srv := server.New(server.Options{
		Workers:         *workers,
		QueueDepth:      *queue,
		MemBudget:       int64(memBudget),
		RequestTimeout:  *timeout,
		Observer:        obs,
		AccessLog:       accessW,
		AccessLogFormat: *logFormat,
		Ring:            ring,
	})

	// Rolling operator stats: interval deltas over the shared metrics
	// sink, so each line reads as "what happened since the last one".
	if *statsEvery > 0 {
		roller := telemetry.NewRoller(obs.Metrics)
		ticker := time.NewTicker(*statsEvery)
		defer ticker.Stop()
		go func() {
			for range ticker.C {
				d := roller.Roll()
				line := fmt.Sprintf("buscond: %.1f req/s", d.Rate("server.requests"))
				if h, ok := d.Hists["server.request_us"]; ok {
					line += fmt.Sprintf(" p50=%.0fµs p95=%.0fµs p99=%.0fµs",
						h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
				}
				if shed := d.Counters["server.shed"]; shed > 0 {
					line += fmt.Sprintf(" shed=%d", shed)
				}
				fmt.Fprintln(stderr, line)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return 1, err
	}
	// The resolved address line is load-bearing: tests and scripts bind
	// port 0 and scrape the actual port from here.
	fmt.Fprintf(stdout, "buscond: listening on http://%s (POST /v1/analyze)\n", ln.Addr())
	if ring != nil {
		fmt.Fprintf(stdout, "buscond: fleet member %s of %d nodes\n", ring.SelfURL(), ring.Len())
	}

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return 1, err
	case <-ctx.Done():
	}

	// Graceful drain: stop advertising health, refuse new connections,
	// wait for in-flight requests, then exit 0.
	srv.StartDrain()
	fmt.Fprintln(stdout, "buscond: draining (in-flight requests will finish)")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		return 1, fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(stdout, "buscond: drained, exiting")
	return 0, nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code, err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "buscond:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}
