package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sacs/internal/cluster"
	"sacs/internal/population"
)

// UseCluster wires the options to host every population's shards on the
// cluster behind cl instead of in-process: engines are built over a
// cluster.Transport (each worker constructs its shard range from the same
// workload registry it was started with), and resume pushes each worker its
// shard-granular slice of the snapshot. Everything else — ticking cadence,
// ingest, checkpoints, the HTTP surface — is unchanged, because the
// coordinator-side engine is an ordinary population.Engine.
//
// It also arms the elastic admin plane: the server records each
// population's transport as its engine is built, so the /cluster HTTP
// routes can admit late workers (ClusterAdmit) and migrate load between
// them (ClusterRebalance) at each population's tick barrier — under the
// same per-population lock that serialises Advance, which is exactly the
// calling discipline cluster.Transport documents.
//
// A worker failure surfaces as an ErrHost-wrapped Advance error (HTTP 500)
// and poisons the population's engine; the recovery path is the usual one,
// restart + resume from the latest checkpoint, which re-initialises every
// worker.
func (o *Options) UseCluster(cl *cluster.Client) {
	ctl := &clusterCtl{client: cl, transports: make(map[string]*cluster.Transport)}
	o.cluster = ctl
	spec := func(s Spec) cluster.Spec {
		return cluster.Spec{ID: s.ID, Workload: s.Workload, Agents: s.Agents, Shards: s.Shards, Seed: s.Seed}
	}
	o.NewEngine = func(s Spec, cfg population.Config) (*population.Engine, error) {
		tr, err := cl.NewTransport(spec(s))
		if err != nil {
			return nil, err
		}
		eng, err := population.NewWithTransport(cfg, tr)
		if err != nil {
			tr.Close()
			return nil, err
		}
		ctl.record(s.ID, tr)
		return eng, nil
	}
	o.RestoreEngine = func(s Spec, cfg population.Config, snap *population.Snapshot) (*population.Engine, error) {
		tr, err := cl.NewTransport(spec(s))
		if err != nil {
			return nil, err
		}
		eng, err := population.RestoreWithTransport(cfg, tr, snap)
		if err != nil {
			tr.Close()
			return nil, err
		}
		ctl.record(s.ID, tr)
		return eng, nil
	}
}

// clusterCtl is the serve layer's handle on an elastic cluster: the shared
// worker list (client) and every hosted population's transport, keyed by
// population id. Transports are recorded at engine-build time and never
// removed — hosted populations live for the server's lifetime.
type clusterCtl struct {
	client *cluster.Client

	mu         sync.Mutex
	transports map[string]*cluster.Transport
}

func (c *clusterCtl) record(id string, tr *cluster.Transport) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.transports[id] = tr
}

func (c *clusterCtl) transport(id string) *cluster.Transport {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.transports[id]
}

// errNotCluster answers the /cluster routes on an in-process server: a
// caller mistake (400), not a host fault.
var errNotCluster = errors.New("serve: not hosting on a cluster (start the daemon with a worker list)")

func (s *Server) clusterCtl() (*clusterCtl, error) {
	if s.opts.cluster == nil {
		return nil, errNotCluster
	}
	return s.opts.cluster, nil
}

// ClusterPopPlacement is one population's live placement: the shard→worker
// map and the per-worker rollup (address, attach epoch, liveness, shard
// count, estimated load) straight from cluster.Transport.Placement.
type ClusterPopPlacement struct {
	ID      string                    `json:"id"`
	Owner   []int                     `json:"owner"`
	Workers []cluster.WorkerPlacement `json:"workers"`
}

// ClusterStatus is the GET /cluster body: the worker list (slot order —
// the indices every placement speaks) and each population's placement.
type ClusterStatus struct {
	Addrs       []string              `json:"addrs"`
	Populations []ClusterPopPlacement `json:"populations"`
}

// ClusterStatus reports the cluster's worker list and every hosted
// population's placement as captured in its published view. Views swap at
// tick barriers and after admit/rebalance, so the owner maps are never
// mid-migration — and the read never takes a population lock, so polling
// /cluster cannot stall ticking.
func (s *Server) ClusterStatus() (ClusterStatus, error) {
	ctl, err := s.clusterCtl()
	if err != nil {
		return ClusterStatus{}, err
	}
	out := ClusterStatus{Addrs: ctl.client.Addrs(), Populations: []ClusterPopPlacement{}}
	for _, id := range s.IDs() {
		h, err := s.hosted(id)
		if err != nil {
			continue // removed between IDs and here; nothing to report
		}
		if p := h.vs.published().placement; p != nil {
			out.Populations = append(out.Populations, *p)
		}
	}
	return out, nil
}

// ClusterAdmit connects the worker at addr and admits it into every hosted
// population's placement as a shard-less member, returning its worker
// index. An address already on the worker list is re-dialled in place (the
// restarted-worker case: the slot, and with it the owner-map identity, is
// reused); a new address is appended. Either way the worker carries no
// shards until a migration lands some — ClusterRebalance, or the
// population's rebalance policy, is the follow-up step.
//
// Admitting an already-live worker that still owns shards fails per
// population: its state would be silently replaced. Such a worker needs
// its shards migrated away first (or, after a genuine state loss, the
// restart+resume recovery path).
func (s *Server) ClusterAdmit(addr string, wait time.Duration) (int, error) {
	ctl, err := s.clusterCtl()
	if err != nil {
		return 0, err
	}
	if addr == "" {
		return 0, errors.New("serve: admit needs a worker address")
	}
	if wait <= 0 {
		wait = 10 * time.Second
	}
	wi := -1
	for i, a := range ctl.client.Addrs() {
		if a == addr {
			wi = i
			break
		}
	}
	if wi >= 0 {
		if err := ctl.client.Redial(wi, wait); err != nil {
			return 0, err
		}
	} else if wi, err = ctl.client.AddWorker(addr, wait); err != nil {
		return 0, err
	}
	for _, id := range s.IDs() {
		h, err := s.hosted(id)
		if err != nil {
			continue
		}
		tr := ctl.transport(id)
		if tr == nil {
			continue
		}
		h.mu.Lock()
		err = tr.AdmitWorker(wi) //sacslint:allow lockatomic admission must land at the tick barrier: the placement may not change while a tick is in flight
		if err == nil {
			s.publishLocked(h) // the new worker must show in /cluster reads
		}
		h.mu.Unlock()
		if err != nil {
			return wi, fmt.Errorf("serve: admit worker %s into %q: %w", addr, id, err)
		}
		s.log.Info("serve: worker admitted", "pop", id, "worker", addr, "slot", wi)
	}
	return wi, nil
}

// ClusterRebalance runs the cluster's placement rule
// (cluster.Transport.Rebalance) over every hosted population at its tick
// barrier and executes the chosen migrations live, returning the moves per
// population.
//
// A failed migration is host-side (ErrHost → 500): the transport keeps
// the source authoritative, and the committed prefix of moves stands.
func (s *Server) ClusterRebalance() (map[string][]cluster.Move, error) {
	ctl, err := s.clusterCtl()
	if err != nil {
		return nil, err
	}
	out := make(map[string][]cluster.Move)
	for _, id := range s.IDs() {
		h, err := s.hosted(id)
		if err != nil {
			continue
		}
		tr := ctl.transport(id)
		if tr == nil {
			continue
		}
		h.mu.Lock()
		moves, err := tr.Rebalance() //sacslint:allow lockatomic live migration must run at the tick barrier: shard state may not move while a tick is in flight
		if len(moves) > 0 {
			s.publishLocked(h) // committed moves must show in /cluster reads
		}
		h.mu.Unlock()
		out[id] = moves
		if err != nil {
			return out, fmt.Errorf("serve: rebalance %q (%w): %w", id, ErrHost, err)
		}
		if len(moves) > 0 {
			s.log.Info("serve: rebalanced population", "pop", id, "moves", len(moves))
		}
	}
	return out, nil
}
