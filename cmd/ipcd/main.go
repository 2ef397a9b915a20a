// Command ipcd is the model-serving daemon: it exposes the core façade
// and the experiment registry over HTTP/JSON with request coalescing,
// bounded-concurrency admission control, and graceful drain.
//
// Usage:
//
//	ipcd                         serve on :8080
//	ipcd -addr :9090 -workers 8  eight concurrent computations
//	ipcd -queue 16 -timeout 30s  16 queued beyond the workers; 30s deadline
//	ipcd -pprof localhost:6060   net/http/pprof on a separate listener (off by default)
//	ipcd -trace-dir traces       sample per-request Chrome traces (every -trace-every requests)
//	ipcd -log-format json        structured JSON logs and access records on stderr
//
// Cluster mode shards the solve keyspace across a fleet of nodes by
// consistent hashing on the coalescing key (the validated parameters):
//
//	ipcd -addr :8080 -cluster-self http://10.0.0.1:8080 \
//	     -peers http://10.0.0.2:8080,http://10.0.0.3:8080
//
// Each node owns a slice of the ring (64 virtual nodes per member),
// forwards misses to the owning peer (coalescing cluster-wide on the
// owner's in-flight solve), and replicates hot entries to the key's
// next ring successor. Responses are byte-identical whichever node
// answers. -cluster-listen moves the cluster traffic (forwards,
// membership, replication) onto a separate listener; peers must then
// advertise that address in -peers.
//
// Endpoints:
//
//	POST /v1/solve            analytic GTPN solution of a workload point
//	POST /v1/sweep            an ordered grid of solves, streamed as NDJSON; a disconnect cancels it
//	POST /v1/simulate         replicated machine-level simulation (seeded)
//	GET  /v1/experiments      the registry, in paper order
//	GET  /v1/experiments/{id} one regenerated table/figure (?full=1 for full sweeps)
//	GET  /healthz             200 ok, 503 while draining
//	GET  /metrics             counters: requests, coalescing, queue, cache, latency
//	GET  /metrics?format=prometheus  the same counters in Prometheus text format
//	                                 (OpenMetrics with exemplars when Accept asks for it)
//	GET  /metrics?scope=cluster      cluster-wide fan-out merge of every member's counters
//	GET  /metrics/history     in-process counter time series (-history-every samples)
//	GET  /metrics/history?scope=cluster  merged member time series, ordered by (time, node)
//	GET  /debug/requests      recent-request ring: IDs, routing decisions, phase timings
//	GET  /debug/requests?scope=cluster   merged member rings, ordered by (time, node)
//	GET  /debug/health        peer health: prober state machine, RTT EWMA (?scope=cluster merges)
//	GET  /debug/events        event journal: membership, drain, peer transitions, SLO breaches
//	POST /cluster/v1/{join,leave,replicate}, GET /cluster/v1/members  (cluster mode)
//
// Service objectives are tracked per route over rolling 1m/5m/30m
// windows and exposed as burn rates in /metrics and ipcd_slo_* families:
//
//	ipcd -slo "route=solve,p=99,lat=50ms" -slo "route=simulate,p=99.9"
//
// Without -slo flags a default solve p99/50ms objective is tracked; an
// explicit -slo "" disables tracking. In cluster mode each node probes
// its peers' /healthz every -probe-every (hysteresis: degraded after 2
// consecutive failures, unreachable after 4, healthy again after 2
// successes) and the forwarding tier skips known-unreachable owners.
//
// On SIGTERM/SIGINT the daemon drains: in cluster mode it first leaves
// the ring — handing its key slots to the surviving members — then
// in-flight requests complete, new ones are refused with 503, and the
// process exits once idle or after -drain at the latest.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/service"
)

// version is stamped at build time: go build -ldflags "-X main.version=v1.2.3".
var version = "dev"

// sloFlags collects repeatable -slo objective specs. An explicit empty
// value disables SLO tracking entirely (the default, with no flags, is
// the built-in solve p99/50ms objective).
type sloFlags struct {
	objectives []obs.Objective
	disabled   bool
}

func (s *sloFlags) String() string {
	names := make([]string, 0, len(s.objectives))
	for _, o := range s.objectives {
		names = append(names, o.Name())
	}
	return strings.Join(names, ",")
}

func (s *sloFlags) Set(v string) error {
	if strings.TrimSpace(v) == "" {
		s.disabled = true
		return nil
	}
	o, err := obs.ParseObjective(v)
	if err != nil {
		return err
	}
	s.objectives = append(s.objectives, o)
	return nil
}

// config reports the service-level objective list: nil for the default
// objective, empty for disabled, else the parsed flags.
func (s *sloFlags) config() []obs.Objective {
	if s.disabled {
		return []obs.Objective{}
	}
	return s.objectives
}

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "concurrent computations (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 64, "admission queue beyond the workers; full queue answers 429")
		timeout      = flag.Duration("timeout", 2*time.Minute, "per-request computation deadline")
		drain        = flag.Duration("drain", 15*time.Second, "grace period for in-flight requests on shutdown")
		pprofAt      = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); off when empty")
		traceDir     = flag.String("trace-dir", "", "write sampled per-request Chrome traces into this directory; off when empty")
		traceEvery   = flag.Int("trace-every", 100, "with -trace-dir, trace every Nth computing request")
		historyEvery = flag.Duration("history-every", 10*time.Second, "sampling interval for the /metrics/history ring (360 samples); 0 disables sampling")

		peers         = flag.String("peers", "", "comma-separated base URLs of the cluster's nodes (may include this one); empty = single-node")
		clusterSelf   = flag.String("cluster-self", "", "this node's advertised base URL on the ring (required with -peers)")
		clusterListen = flag.String("cluster-listen", "", "serve cluster traffic (forwards, membership, replication) on this separate address; empty = the main listener")
		replicas      = flag.Int("cluster-replicas", 0, "ring successors receiving each hot entry (0 = 1, negative disables replication)")

		logFormat = flag.String("log-format", "text", "structured log encoding on stderr: text or json")
		nodeName  = flag.String("node-name", "", "this node's name in request IDs, traces and access logs (default: -cluster-self host, else \"ipcd\")")

		probeEvery  = flag.Duration("probe-every", time.Second, "peer health probe interval in cluster mode; 0 disables probing")
		eventsSize  = flag.Int("events", 0, "events retained by the /debug/events journal ring (0 = 256)")
		showVersion = flag.Bool("version", false, "print the build version and exit")
	)
	var slo sloFlags
	flag.Var(&slo, "slo", `service objective, repeatable: "route=solve,p=99,lat=50ms" (empty disables; default: solve p99 under 50ms)`)
	flag.Parse()
	if *showVersion {
		fmt.Println("ipcd " + version)
		return
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "ipcd: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	// One slog.Logger carries both daemon lifecycle records and the
	// per-request access log; -log-format json makes every line (and
	// therefore the smoke tests' assertions) machine-parseable.
	var logHandler slog.Handler
	switch *logFormat {
	case "text":
		logHandler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		logHandler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "ipcd: -log-format must be text or json, got %q\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(logHandler)
	slog.SetDefault(logger)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	name := *nodeName
	if name == "" && *clusterSelf != "" {
		// A cluster node defaults to its advertised host:port — unique
		// within the fleet, so merged traces and logs stay attributable.
		if u, err := url.Parse(*clusterSelf); err == nil && u.Host != "" {
			name = u.Host
		}
	}

	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fatal("trace dir", "err", err)
		}
	}
	// One journal per process, shared by the serving and cluster tiers:
	// drains, sheds, SLO breaches, membership changes and peer health
	// transitions land in one /debug/events ring (and the structured log).
	journalName := name
	if journalName == "" {
		journalName = "ipcd"
	}
	journal := obs.NewJournal(*eventsSize, logger, journalName)
	var node *cluster.Node
	if *peers != "" {
		if *clusterSelf == "" {
			fatal("-peers requires -cluster-self (this node's advertised URL)")
		}
		var err error
		node, err = cluster.New(cluster.Config{
			Self:     *clusterSelf,
			Peers:    strings.Split(*peers, ","),
			Replicas: *replicas,
			Journal:  journal,
		})
		if err != nil {
			fatal("cluster", "err", err)
		}
	}
	cfg := service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		RequestTimeout: *timeout,
		TraceDir:       *traceDir,
		TraceEvery:     *traceEvery,
		NodeName:       name,
		AccessLog:      logger,
		SLO:            slo.config(),
		Journal:        journal,
		Version:        version,
	}
	if node != nil {
		cfg.Cluster = node
	}
	srv := service.New(cfg)
	if node != nil {
		node.Bind(srv)
	}

	// The signal context exists before any background goroutine so every
	// ticker loop below exits on shutdown instead of leaking.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	if *historyEvery > 0 {
		go func() {
			tick := time.NewTicker(*historyEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case t := <-tick.C:
					srv.SampleMetrics(t)
				}
			}
		}()
	}
	// The SLO clock: one tick per second rolls the current sample into
	// the 1m/5m/30m windows (a no-op when tracking is disabled).
	go func() {
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case t := <-tick.C:
				srv.TickSLO(t)
			}
		}
	}()
	if node != nil {
		go node.StartProber(ctx, *probeEvery)
	}
	// In cluster mode the cluster endpoints either share the main
	// listener or get their own; either way forwarded /v1/* requests
	// reach the same serving mux.
	handler := srv.Handler()
	if node != nil && *clusterListen == "" {
		handler = node.Handler()
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	if node != nil && *clusterListen != "" {
		csrv := &http.Server{Addr: *clusterListen, Handler: node.Handler(), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("cluster listener", "addr", *clusterListen)
			if err := csrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("cluster listener", "err", err)
			}
		}()
	}

	// Profiling stays off the serving mux and off by default: the
	// debug endpoints bind a separate listener (normally loopback) so
	// they are never exposed on the service address.
	if *pprofAt != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Addr: *pprofAt, Handler: pmux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("pprof listener", "addr", *pprofAt)
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener", "err", err)
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("serving", "addr", *addr, "node", name, "version", version)
	if node != nil {
		// Announce this node to the fleet once the listeners are up; peers
		// listed statically already route to us, so a failed announcement
		// only matters for members our own -peers list missed.
		go func() {
			jctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			defer cancel()
			if err := node.Join(jctx); err != nil {
				logger.Error("cluster join", "err", err)
			}
			logger.Info("cluster joined", "members", strings.Join(node.Members(), ","))
		}()
	}

	select {
	case err := <-errCh:
		fatal("listen", "err", err)
	case <-ctx.Done():
	}

	if node != nil {
		// Hand the ring slots off BEFORE refusing traffic: peers stop
		// routing here, and anything still arriving mid-drain is forwarded
		// to the new owner — byte-identical either way.
		lctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := node.Leave(lctx); err != nil {
			logger.Error("cluster leave", "err", err)
		}
		cancel()
	}
	logger.Info("draining", "grace", drain.String())
	srv.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("shutdown", "err", err)
	}
	logger.Info("drained, exiting")
}
