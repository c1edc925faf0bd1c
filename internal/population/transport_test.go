package population

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sacs/internal/codec"
	"sacs/internal/core"
)

// RenamedRun spells the run of agents [lo, hi), each agent's state as
// AppendState writes it, with agent id's name replaced: a run RestoreState
// must reject.
func RenamedRun(agent func(int) *core.Agent, lo, hi, id int, name string) []byte {
	var e codec.Encoder
	for i := lo; i < hi; i++ {
		var st, own codec.Encoder
		if err := agent(i).AppendState(&st); err != nil {
			panic(err)
		}
		if i != id {
			e.Raw(st.Bytes())
			continue
		}
		own.Str(agent(i).Name())
		e.Str(name)
		e.Raw(st.Bytes()[own.Len():])
	}
	return e.Bytes()
}

// splitTransport composes LocalTransports over disjoint shard sets into
// one whole-population transport — the in-process model of a worker
// cluster, with no wire in between. It exists only to pin the Transport
// seam: an engine over split executors must be byte-identical to the
// engine over the single default transport, also while Move migrates
// shards between the parts.
type splitTransport struct {
	parts  []*LocalTransport
	bounds []int            // global agent partition
	outs   []*ShardExchange // Step's result, shard-indexed
}

func newSplitTransport(cfg Config, cuts ...int) *splitTransport {
	cfg = cfg.Normalized()
	st := &splitTransport{
		bounds: Partition(cfg.Agents, cfg.Shards),
		outs:   make([]*ShardExchange, cfg.Shards),
	}
	lo := 0
	for _, hi := range append(cuts, cfg.Shards) {
		st.parts = append(st.parts, NewLocalTransport(cfg, lo, hi))
		lo = hi
	}
	return st
}

// NewSplitTransport hands the split helper to the external tests, which
// may import the checkpoint codec to compare encoded snapshot bytes.
var NewSplitTransport = newSplitTransport

// ownedRuns lists p's owned shards as contiguous [lo, hi) runs.
func ownedRuns(p *LocalTransport) [][2]int {
	var runs [][2]int
	for _, s := range p.Owned() {
		if n := len(runs); n > 0 && runs[n-1][1] == s {
			runs[n-1][1]++
		} else {
			runs = append(runs, [2]int{s, s + 1})
		}
	}
	return runs
}

func (st *splitTransport) Step(tick int, mail [][]core.Stimulus) ([]*ShardExchange, error) {
	for _, p := range st.parts {
		outs, err := p.Step(tick, mail)
		if err != nil {
			return nil, err
		}
		for i, s := range p.Owned() {
			st.outs[s] = outs[i]
		}
	}
	return st.outs, nil
}

func (st *splitTransport) Export() (*RangeState, error) {
	shards, agents := len(st.outs), st.bounds[len(st.outs)]
	full := &RangeState{
		HiShard: shards, HiAgent: agents,
		ShardRNG: make([]uint64, shards),
		AgentRNG: make([]uint64, agents),
		Runs:     make([][]byte, shards),
	}
	for _, p := range st.parts {
		for _, r := range ownedRuns(p) {
			rs, err := p.ExportRange(r[0], r[1])
			if err != nil {
				return nil, err
			}
			copy(full.ShardRNG[rs.LoShard:], rs.ShardRNG)
			copy(full.AgentRNG[rs.LoAgent:], rs.AgentRNG)
			copy(full.Runs[rs.LoShard:], rs.Runs)
		}
	}
	return full, nil
}

func (st *splitTransport) Install(rs *RangeState) error {
	for _, p := range st.parts {
		for _, r := range ownedRuns(p) {
			lo, hi := r[0], r[1]
			loA, hiA := st.bounds[lo], st.bounds[hi]
			if err := p.Install(&RangeState{
				LoShard: lo, HiShard: hi, LoAgent: loA, HiAgent: hiA,
				ShardRNG: rs.ShardRNG[lo:hi],
				AgentRNG: rs.AgentRNG[loA:hiA],
				Runs:     rs.Runs[lo:hi],
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// Move migrates shards [lo, hi) from part `from` to part `to` the way a
// cluster does: drain, adopt, release.
func (st *splitTransport) Move(lo, hi, from, to int) error {
	src := st.parts[from]
	rs, err := src.ExportRange(lo, hi)
	if err != nil {
		return err
	}
	if err := st.parts[to].Adopt(rs); err != nil {
		return err
	}
	return src.Release(lo, hi)
}

func (st *splitTransport) Explain(id int, now float64) (string, error) {
	for _, p := range st.parts {
		if p.Agent(id) != nil {
			return p.Explain(id, now)
		}
	}
	return "", fmt.Errorf("no part hosts agent %d", id)
}

func (st *splitTransport) Close() error { return nil }

// TestSplitTransportByteIdentical: the same population stepped through one
// LocalTransport and through three composed range transports must produce
// identical TickStats every tick and an identical snapshot — the
// Transport-seam half of the cluster's determinism contract, pinned
// without any networking.
func TestSplitTransportByteIdentical(t *testing.T) {
	cfg := tinyConfig(64)
	cfg.Shards = 8

	ref := New(cfg)
	split, err := NewWithTransport(cfg, newSplitTransport(cfg, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if i%5 == 0 {
			st := core.Stimulus{Name: "ext", Source: "x", Value: float64(i), Time: float64(i)}
			if err := ref.Enqueue(i%64, st); err != nil {
				t.Fatal(err)
			}
			if err := split.Enqueue(i%64, st); err != nil {
				t.Fatal(err)
			}
		}
		want := ref.Tick()
		got, err := split.TickErr()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("tick %d diverges across the transport seam:\nsingle %+v\nsplit  %+v", i, want, got)
		}
	}
	a, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := split.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("snapshots diverge across the transport seam")
	}

	// And the restore leg: RestoreWithTransport over fresh split parts
	// continues identically to Restore over the default transport.
	r1, err := Restore(cfg, a)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RestoreWithTransport(cfg, newSplitTransport(cfg, 4), b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		want := r1.Tick()
		got, err := r2.TickErr()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("restored tick %d diverges", i)
		}
	}
}

// transportView is what a failed ownership change must leave untouched: the
// owned list, every agent slot (by identity) and every cost estimate.
type transportView struct {
	owned  []int
	agents []*core.Agent
	costs  []float64
}

func viewOf(lt *LocalTransport) transportView {
	v := transportView{owned: append([]int(nil), lt.Owned()...)}
	for id := range lt.agents {
		v.agents = append(v.agents, lt.Agent(id))
	}
	v.costs = lt.Costs().EstimatesInto(nil, 0, lt.Costs().Shards())
	return v
}

// TestAdoptFailureLeavesTransportUnchanged: every way an Adopt can fail —
// an overlapping shard, a state whose lengths disagree, an agent state
// RestoreState rejects — leaves the owned list, the agents and the cost
// estimates exactly as they were, and a valid adopt still succeeds
// afterwards.
func TestAdoptFailureLeavesTransportUnchanged(t *testing.T) {
	cfg := tinyConfig(48)
	cfg.Shards = 6
	cfg = cfg.Normalized()
	src := NewLocalTransport(cfg, 0, cfg.Shards)
	lt := NewLocalTransport(cfg, 0, 3)
	mail := make([][]core.Stimulus, cfg.Agents)
	for tick := 0; tick < 3; tick++ {
		for _, tr := range []*LocalTransport{src, lt} {
			if _, err := tr.Step(tick, mail); err != nil {
				t.Fatal(err)
			}
		}
	}
	export := func(lo, hi int) *RangeState {
		rs, err := src.ExportRange(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	truncated := export(3, 5)
	truncated.Runs = truncated.Runs[:len(truncated.Runs)-1]
	renamed := export(3, 5)
	bounds := Partition(cfg.Agents, cfg.Shards)
	last := len(renamed.Runs) - 1
	renamed.Runs[last] = RenamedRun(src.Agent, bounds[4], bounds[5], bounds[5]-1, "someone else")

	cases := []struct {
		name string
		rs   *RangeState
		want string
	}{
		{"overlap", export(2, 4), "overlap owned shard 2"},
		{"inconsistent lengths", truncated, "internally inconsistent"},
		{"RestoreState error", renamed, "applied to agent"},
	}
	before := viewOf(lt)
	for _, c := range cases {
		if err := lt.Adopt(c.rs); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: Adopt = %v, want error containing %q", c.name, err, c.want)
		}
		if after := viewOf(lt); !reflect.DeepEqual(before, after) {
			t.Fatalf("%s: failed Adopt changed the transport:\nbefore %+v\nafter  %+v", c.name, before, after)
		}
	}
	if err := lt.Adopt(export(3, 5)); err != nil {
		t.Fatalf("valid adopt after failures: %v", err)
	}
	if got := lt.Owned(); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("owned after adopt = %v", got)
	}
}

// TestReleaseRejectsUnowned: Release of an interior subrange drops just
// those shards, and a release naming any shard not owned — outside the
// set, or in a gap an earlier release left — fails without changing it.
func TestReleaseRejectsUnowned(t *testing.T) {
	cfg := tinyConfig(48)
	cfg.Shards = 6
	cfg = cfg.Normalized()
	lt := NewLocalTransport(cfg, 1, 5)
	if err := lt.Release(2, 3); err != nil {
		t.Fatalf("interior release: %v", err)
	}
	bounds := Partition(cfg.Agents, cfg.Shards)
	if lt.Agent(bounds[2]) != nil || lt.Agent(bounds[3]) == nil {
		t.Fatal("interior release dropped the wrong agents")
	}
	before := viewOf(lt)
	for _, r := range [][2]int{{0, 2}, {4, 6}, {1, 4}, {2, 3}, {3, 3}} {
		if err := lt.Release(r[0], r[1]); err == nil {
			t.Fatalf("Release(%d, %d) of unowned shards succeeded", r[0], r[1])
		}
		if after := viewOf(lt); !reflect.DeepEqual(before, after) {
			t.Fatalf("failed Release(%d, %d) changed the transport", r[0], r[1])
		}
	}
	if got := lt.Owned(); !reflect.DeepEqual(got, []int{1, 3, 4}) {
		t.Fatalf("owned = %v, want [1 3 4]", got)
	}
}
