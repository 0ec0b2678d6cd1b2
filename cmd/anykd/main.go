// Command anykd serves ranked top-k join queries over HTTP — the
// serving layer of the reproduction (internal/server) as a standalone
// daemon.
//
// Quickstart:
//
//	anykd -addr :8080 &
//	curl -X POST -H 'Content-Type: text/csv' --data-binary @edges.csv \
//	    'http://localhost:8080/v1/datasets/edges?weights=true'
//	curl -X POST -H 'Content-Type: application/json' \
//	    -d '{"atoms":[{"dataset":"edges","vars":["A","B"]},{"dataset":"edges","vars":["B","C"]}]}' \
//	    http://localhost:8080/v1/queries/hops2
//	curl 'http://localhost:8080/v1/query/hops2/topk?k=5&agg=sum&variant=Lazy'
//
// Results stream as NDJSON in ranking order with a trailing
// {"done":true,"count":N} line; /v1/stats surfaces plan-registry
// hit/miss counters, admission state, and per-plan statistics. SIGINT
// or SIGTERM triggers a graceful shutdown: new streams are refused,
// in-flight enumerations drain within -grace, stragglers are canceled.
//
// Observability: GET /metrics exposes Prometheus text metrics (request
// counts and latencies, per-ranking TTF/TT(k) histograms, plan-cache
// and delta counters, Go runtime series); every /topk and dataset PATCH
// records a phase-level trace retrievable via the response's X-Trace-Id
// header at GET /v1/traces/{id}; -access-log writes one JSON line per
// request; -slow-query logs any request over the threshold with its
// trace id. -admin-addr starts a second, operator-only listener with
// net/http/pprof under /debug/pprof/ plus a /metrics alias — bind it to
// loopback, never the public address.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxInflight := flag.Int("max-inflight", 64, "max concurrent enumerations before /topk returns 429")
	timeout := flag.Duration("timeout", 10*time.Second, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", 60*time.Second, "cap on client-requested ?timeout=")
	maxBody := flag.Int64("max-body-bytes", 64<<20, "max dataset/query upload size")
	maxK := flag.Int("max-k", 0, "cap on ?k= (0 = unlimited)")
	registryCap := flag.Int("registry-cap", 128, "max resident prepared plans")
	grace := flag.Duration("grace", 15*time.Second, "graceful-shutdown drain window")
	adminAddr := flag.String("admin-addr", "", "operator-only listen address for pprof + /metrics (empty = off; bind to loopback)")
	traceCap := flag.Int("trace-cap", 64, "recorded request traces kept for GET /v1/traces/{id}")
	slowQuery := flag.Duration("slow-query", 0, "log requests at or above this duration with their trace id (0 = off)")
	accessLog := flag.Bool("access-log", false, "write one JSON access-log line per request to stderr")
	flag.Parse()

	cfg := server.Config{
		MaxInflight:        *maxInflight,
		DefaultTimeout:     *timeout,
		MaxTimeout:         *maxTimeout,
		MaxBodyBytes:       *maxBody,
		MaxK:               *maxK,
		RegistryCapacity:   *registryCap,
		TraceCapacity:      *traceCap,
		SlowQueryThreshold: *slowQuery,
		SlowQueryLog:       os.Stderr,
	}
	if *accessLog {
		cfg.AccessLog = os.Stderr
	}
	s := server.New(cfg)
	hs := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	var admin *http.Server
	if *adminAddr != "" {
		admin = &http.Server{
			Addr:              *adminAddr,
			Handler:           s.AdminHandler(),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			log.Printf("anykd admin (pprof, metrics) listening on %s", *adminAddr)
			if err := admin.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("anykd admin: %v", err)
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("anykd listening on %s (max-inflight %d, registry %d plans)",
			*addr, *maxInflight, *registryCap)
		errCh <- hs.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		log.Fatalf("anykd: %v", err)
	case <-ctx.Done():
	}

	log.Printf("anykd: shutting down (draining up to %v)", *grace)
	shCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := s.Shutdown(shCtx); err != nil {
		log.Printf("anykd: streams cut after grace period: %v", err)
	}
	if err := hs.Shutdown(shCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("anykd: http shutdown: %v", err)
	}
	if admin != nil {
		admin.Shutdown(shCtx)
	}
	log.Print("anykd: bye")
	os.Exit(0)
}
