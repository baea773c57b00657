// Command osmosisd runs the fabric simulator as a long-running HTTP
// daemon: submit jobs, watch progress, scrape metrics, checkpoint and
// restore runs bit-exactly.
//
// Usage:
//
//	osmosisd -addr :8080                     # serve the API
//	osmosisd -addr :8080 -ckpt-dir /var/ckpt # survive restarts
//
// With -ckpt-dir set, SIGTERM/SIGINT checkpoints every live job into
// the directory before exiting, and the next start restores and
// continues them — the finished results are byte-identical to an
// uninterrupted run (see internal/service).
//
// API sketch (JSON unless noted):
//
//	POST /v1/jobs                  submit a job spec
//	GET  /v1/jobs                  list jobs
//	GET  /v1/jobs/{id}             job status
//	GET  /v1/jobs/{id}/result      final metrics (409 until done)
//	GET  /v1/jobs/{id}/stream      NDJSON progress stream
//	POST /v1/jobs/{id}/checkpoint  osmosis-ckpt v2 snapshot (text)
//	POST /v1/jobs/{id}/cancel      cancel
//	POST /v1/restore               resubmit a checkpoint snapshot
//	GET  /metrics                  Prometheus-style text metrics
//	GET  /healthz                  liveness
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:9077", "HTTP listen address")
		ckptDir    = flag.String("ckpt-dir", "", "checkpoint directory for suspend-on-signal and restore-on-start")
		workers    = flag.Int("workers", 0, "jobs run at once; further jobs queue (0 = GOMAXPROCS)")
		chunkSlots = flag.Uint64("chunk-slots", 0, "slots per engine chunk between progress publications and checkpoint rendezvous (0 = default 256; larger amortizes per-chunk quantile cost on long runs)")
	)
	flag.Parse()

	srv := service.NewServer(service.Options{
		Workers:    *workers,
		ChunkSlots: *chunkSlots,
	})
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fatal(err)
		}
		n, err := srv.RestoreDir(*ckptDir)
		if err != nil {
			fatal(err)
		}
		if n > 0 {
			fmt.Fprintf(os.Stderr, "osmosisd: restored %d job(s) from %s\n", n, *ckptDir)
		}
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "osmosisd: listening on %s\n", *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "osmosisd: %v; shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "osmosisd: http shutdown: %v\n", err)
		}
		cancel()
		if *ckptDir != "" {
			n, err := srv.Suspend(*ckptDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "osmosisd: suspend: %v\n", err)
			}
			fmt.Fprintf(os.Stderr, "osmosisd: checkpointed %d job(s) into %s\n", n, *ckptDir)
		} else {
			srv.Close()
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
