// Command sawd is the SACS long-run service daemon: it hosts live
// populations of self-aware agents behind an HTTP API, advances them on a
// wall-clock cadence (or on demand), ingests external stimuli, serves
// per-agent self-explanations, and checkpoints population state to disk on
// an interval and on graceful shutdown. Restarting sawd with the same
// -dir resumes every population from its latest snapshot and continues
// byte-identically — the resume-determinism contract of DESIGN.md.
//
// Usage:
//
//	sawd                                  # one "demo" gossip population, on-demand ticking
//	sawd -tick 100ms                      # advance every 100ms of wall clock
//	sawd -pop id=a,agents=1000 -pop id=b  # host several populations
//	sawd -dir /var/lib/sawd -every 500    # checkpoint every 500 ticks into -dir
//	sawd -resume=false                    # start fresh (refuses while old snapshots exist)
//	sawd -pprof                           # also mount net/http/pprof under /debug/pprof/
//
// Multi-process topology (internal/cluster): workers host contiguous shard
// ranges of the agents, the coordinator owns the tick barrier, mailbox
// routing, ingest, checkpoints and the whole HTTP API — and its output is
// byte-identical to a single-process run at the same shard count:
//
//	sawd -worker 127.0.0.1:9301           # shard host (no HTTP, no checkpoints)
//	sawd -worker 127.0.0.1:9302
//	sawd -cluster 127.0.0.1:9301,127.0.0.1:9302 -dir ckpt
//
// A worker failure poisons the affected population (ticks return 500); the
// recovery path is restarting the worker and the coordinator, which
// resumes from the latest checkpoint and pushes every worker its shard
// range's slice of the snapshot.
//
// The cluster is elastic while it runs: admit a late worker over HTTP and
// rebalance live — shards migrate between workers at a tick barrier with
// no restart, and the run stays byte-identical to a single-process engine:
//
//	sawd -worker 127.0.0.1:9303           # a third worker, started mid-run
//	curl -X POST -d '{"addr":"127.0.0.1:9303"}' localhost:8077/cluster/workers
//	curl -X POST localhost:8077/cluster/rebalance
//	curl localhost:8077/cluster           # worker list + per-population placement
//
// A rebalance follows one rule over the measured per-shard step costs: a
// shard-less worker joins the carriers while they hold more than 4 shards
// each, then single shards move from the most to the least loaded member
// until none carries 1.5 times another's load (at most 16 moves per
// request). The rule has no flags.
//
// Drive it with curl:
//
//	curl localhost:8077/healthz
//	curl localhost:8077/metrics
//	curl localhost:8077/populations
//	curl -X POST localhost:8077/populations/demo/ticks?n=10
//	curl -X POST -d '{"to":3,"name":"pressure","value":42.5,"source":"sensor-9"}' \
//	     localhost:8077/populations/demo/stimuli
//	curl localhost:8077/populations/demo/agents/3/explain
//	curl -X POST localhost:8077/populations/demo/checkpoint
//
// Registered workloads (the -pop "workload" key) must be checkpoint
// friendly in the sense of DESIGN.md; the built-in "gossip" workload is the
// population experiment S2 validates end to end.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sacs/internal/cluster"
	"sacs/internal/experiments"
	"sacs/internal/obs"
	"sacs/internal/runner"
	"sacs/internal/serve"
)

func main() { os.Exit(run()) }

// workloads is the single registry every sawd role serves. Coordinators
// resolve workload names through serve, workers through cluster; both
// views derive from this one list, so the "registries must match"
// invariant of the cluster protocol holds by construction.
var workloads = []serve.Workload{
	// The S2-validated checkpoint-friendly population: full-stack
	// self-aware agents gossiping load models around a ring.
	{Name: "gossip", Build: experiments.S2Config},
}

// clusterWorkloads is the same registry in the worker's type (serve.Workload
// and cluster.Workload are structurally identical by design).
func clusterWorkloads() []cluster.Workload {
	out := make([]cluster.Workload, len(workloads))
	for i, w := range workloads {
		out[i] = cluster.Workload(w)
	}
	return out
}

// parseSpec turns "id=a,workload=gossip,agents=256,shards=16,seed=7" into a
// serve.Spec; every key is optional except id when several -pop flags are
// given.
func parseSpec(arg string) (serve.Spec, error) {
	spec := serve.Spec{ID: "demo", Workload: "gossip", Agents: 256, Shards: 16, Seed: 1}
	if arg == "" {
		return spec, nil
	}
	for _, kv := range strings.Split(arg, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return spec, fmt.Errorf("bad -pop entry %q (want key=value)", kv)
		}
		var err error
		switch k {
		case "id":
			spec.ID = v
		case "workload":
			spec.Workload = v
		case "agents":
			spec.Agents, err = strconv.Atoi(v)
		case "shards":
			spec.Shards, err = strconv.Atoi(v)
		case "seed":
			spec.Seed, err = strconv.ParseInt(v, 10, 64)
		default:
			return spec, fmt.Errorf("unknown -pop key %q", k)
		}
		if err != nil {
			return spec, fmt.Errorf("bad -pop value %q for %s: %v", v, k, err)
		}
	}
	return spec, nil
}

func run() int {
	var (
		addr     = flag.String("addr", "127.0.0.1:8077", "HTTP listen address")
		dir      = flag.String("dir", "sawd-checkpoints", "checkpoint directory (empty disables durability)")
		every    = flag.Int("every", 200, "checkpoint every N ticks while advancing (0 = shutdown/explicit only)")
		keep     = flag.Int("keep", 3, "snapshot files retained per population")
		tick     = flag.Duration("tick", 0, "wall-clock tick cadence (0 = advance only on POST .../ticks)")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker pool size for shard stepping")
		resume   = flag.Bool("resume", true, "resume populations from their latest snapshot in -dir "+
			"(with -resume=false, starting fresh refuses while old snapshots exist)")
		workerAddr    = flag.String("worker", "", "run as a cluster worker on this TCP address (hosts shard ranges; no HTTP API)")
		clusterList   = flag.String("cluster", "", "comma-separated worker addresses; host populations on that cluster instead of in-process")
		pprofOn       = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the HTTP address (opt-in: profiling is an operator tool, not part of the public API)")
		mailboxBudget = flag.Int("mailbox-budget", 0, "per-population cap on stimuli pending delivery; past it POST .../stimuli sheds with 429 "+
			"(0 = adaptive from population size and work-proxy quantiles, negative disables shedding)")
		explainBudget = flag.Int("explain-budget", 0, "byte cap per rendered explanation (0 = 64KiB default, negative = uncapped)")
	)
	var specArgs []string
	flag.Func("pop", "population spec: id=...,workload=...,agents=N,shards=N,seed=N (repeatable)",
		func(v string) error { specArgs = append(specArgs, v); return nil })
	flag.Parse()

	// One structured logger for the whole process; serve and cluster attach
	// their own attributes (pop, worker, shard range) to it.
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	slog.SetDefault(log)

	if *workerAddr != "" && *clusterList != "" {
		log.Error("sawd: -worker and -cluster are mutually exclusive (a process is one role)")
		return 2
	}
	if *workerAddr != "" {
		return runWorker(log, *workerAddr, *parallel)
	}

	specs := make([]serve.Spec, 0, len(specArgs))
	if len(specArgs) == 0 {
		specArgs = []string{""}
	}
	for _, arg := range specArgs {
		spec, err := parseSpec(arg)
		if err != nil {
			log.Error("sawd: bad -pop flag", "err", err)
			return 2
		}
		specs = append(specs, spec)
	}

	pool := runner.New(*parallel)
	defer pool.Close()
	reg := obs.NewRegistry()
	opts := serve.Options{
		Pool:            pool,
		Dir:             *dir,
		CheckpointEvery: *every,
		Keep:            *keep,
		Workloads:       workloads,
		Registry:        reg,
		Logger:          log,
		MailboxBudget:   *mailboxBudget,
		ExplainBudget:   *explainBudget,
	}
	if *clusterList != "" {
		cl, err := cluster.Dial(strings.Split(*clusterList, ","), 10*time.Second)
		if err != nil {
			log.Error("sawd: cluster dial failed", "workers", *clusterList, "err", err)
			return 1
		}
		defer cl.Close()
		cl.Instrument(reg)
		opts.UseCluster(cl)
		log.Info("sawd: coordinating cluster", "workers", cl.Workers(), "addrs", *clusterList)
	}
	s, err := serve.New(opts)
	if err != nil {
		log.Error("sawd: startup failed", "err", err)
		return 1
	}

	for _, spec := range specs {
		if *resume && *dir != "" {
			resumed, err := s.AddOrResume(spec)
			if err != nil {
				log.Error("sawd: hosting failed", "pop", spec.ID, "err", err)
				return 1
			}
			if resumed {
				continue // serve logged the resume with tick + snapshot path
			}
		} else if err := s.Add(spec); err != nil {
			log.Error("sawd: hosting failed", "pop", spec.ID, "err", err)
			return 1
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	handler := s.Handler()
	if *pprofOn {
		// Mount the profiler on a parent mux (never DefaultServeMux, which
		// would also pick up anything third-party init() handlers register).
		// serve.Handler keeps /debug/vars; the profiler adds /debug/pprof/.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.ListenAndServe() }()
	log.Info("sawd: listening", "addr", *addr, "tick", tick.String(),
		"checkpoint_every", *every, "dir", *dir, "pprof", *pprofOn)

	// The tick loop gets its own cancellation, separate from the signal
	// context: on shutdown the HTTP listener must drain FIRST, so that
	// every request we have acknowledged is part of the final checkpoint —
	// only then is the loop cancelled and the last snapshot taken.
	runCtx, stopTicking := context.WithCancel(context.Background())
	defer stopTicking()
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(runCtx, *tick) }()

	shutdownHTTP := func() {
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Error("sawd: http shutdown", "err", err)
		}
		<-httpErr // ListenAndServe returns ErrServerClosed after Shutdown
	}

	exit := 0
	select {
	case err := <-httpErr:
		// The listener failing is fatal; stop the tick loop and still take
		// the final checkpoint.
		log.Error("sawd: http listener died", "err", err)
		exit = 1
		stopTicking()
		if err := <-runErr; err != nil {
			log.Error("sawd: shutdown checkpoint failed", "err", err)
		}
	case err := <-runErr:
		// The wall-clock tick loop died (it has already checkpointed what
		// it could). Serving stale HTTP 200s while nothing advances would
		// be silent rot — fail loudly instead.
		log.Error("sawd: tick loop died", "err", err)
		exit = 1
		shutdownHTTP()
	case <-ctx.Done():
		log.Info("sawd: signal received, draining HTTP, checkpointing and shutting down")
		shutdownHTTP()
		stopTicking()
		if err := <-runErr; err != nil {
			log.Error("sawd: shutdown checkpoint failed", "err", err)
			exit = 1
		}
	}
	if *dir != "" {
		for _, id := range s.IDs() {
			if st, err := s.Status(id); err == nil {
				log.Info("sawd: population stopped", "pop", id, "tick", st.Tick, "snapshot", st.CkptPath)
			}
		}
	}
	return exit
}

// runWorker hosts shard ranges for a coordinator until SIGINT/SIGTERM. The
// worker is stateless from the operator's point of view: it keeps no
// checkpoints and serves no HTTP — the coordinator owns durability, and a
// restarted worker is re-initialised from the coordinator's snapshot.
func runWorker(log *slog.Logger, addr string, parallel int) int {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Error("sawd: worker listen failed", "addr", addr, "err", err)
		return 1
	}
	pool := runner.New(parallel)
	defer pool.Close()
	w, err := cluster.NewWorker(ln, pool, clusterWorkloads())
	if err != nil {
		log.Error("sawd: worker startup failed", "err", err)
		return 1
	}
	w.SetLogger(log)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- w.Serve() }()
	log.Info("sawd: cluster worker listening", "addr", w.Addr(), "parallel", parallel)
	select {
	case err := <-done:
		if err != nil {
			log.Error("sawd: worker died", "err", err)
			return 1
		}
	case <-ctx.Done():
		log.Info("sawd: worker shutting down")
		w.Close()
		<-done
	}
	return 0
}
