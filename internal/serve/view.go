package serve

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// The lock-free read plane. At every tick barrier (and at every other
// placement- or checkpoint-changing event) the server renders one immutable
// popView per population and publishes it with an atomic pointer swap,
// RCU-style. Readers — Status, GET /populations/{id}, GET /cluster — load
// the pointer and never touch h.mu, so a dashboard polling at any rate
// cannot block Advance, and Advance cannot block a read. Staleness is
// explicit: every view carries the tick it was rendered at, echoed in
// responses as Status.ViewTick and the X-Sacs-View-Tick header.
//
// Two counters that move between barriers — Ingested and Queued — are kept
// as atomics on the hosted population and overlaid onto the view copy at
// read time, so an accepted ingest is visible to the very next Status call
// without waiting for a barrier.

// ErrNotFound marks reads of things that do not exist under an existing
// population (an out-of-range agent). The HTTP layer maps it to 404. For
// cluster-hosted populations the range check runs against the published
// view on the coordinator, so a bad agent id never costs a worker
// round-trip.
var ErrNotFound = errors.New("not found")

// ErrOverloaded marks ingest rejected by the population's mailbox budget.
// The HTTP layer maps it to 429 with a Retry-After derived from the
// population's observed tick cadence.
var ErrOverloaded = errors.New("overloaded")

// popView is one population's immutable read-plane snapshot. Everything in
// it is owned by the view once published: readers may copy st but must not
// mutate placement.
type popView struct {
	st        Status               // rendered at the barrier; Ingested/Queued overlaid at read time
	placement *ClusterPopPlacement // nil when hosted in-process
}

// viewState is the mutable-by-swap part of a hosted population's read
// plane: the published view plus the publication clock that feeds the
// view-age gauge and the Retry-After estimate.
type viewState struct {
	view        atomic.Pointer[popView]
	publishedNS atomic.Int64 // UnixNano of the last publish
	gapEWMA     atomic.Int64 // EWMA of inter-publish gaps, nanoseconds
	ticking     atomic.Bool  // a TickErr is in flight right now
}

// published returns the current view; the server publishes before register,
// so a hosted population always has one.
func (v *viewState) published() *popView { return v.view.Load() }

// ageSeconds is the view-age gauge: seconds since the last publish.
func (v *viewState) ageSeconds() float64 {
	ns := v.publishedNS.Load()
	if ns == 0 {
		return 0
	}
	return time.Duration(time.Now().UnixNano() - ns).Seconds()
}

// stamp records a publication and folds the gap since the previous one into
// the EWMA that Retry-After is derived from.
func (v *viewState) stamp() {
	now := time.Now().UnixNano()
	prev := v.publishedNS.Swap(now)
	if prev == 0 {
		return
	}
	gap := now - prev
	old := v.gapEWMA.Load()
	if old == 0 {
		v.gapEWMA.Store(gap)
		return
	}
	v.gapEWMA.Store(old + (gap-old)/4) // α = 1/4: smooth but tracks cadence changes
}

// retryAfterSeconds is the Retry-After for a shed ingest: roughly one tick
// gap (the time until the mailboxes drain at the next barrier), clamped to
// [1, 60] whole seconds as the header requires.
func (v *viewState) retryAfterSeconds() int {
	gap := time.Duration(v.gapEWMA.Load())
	secs := int(gap.Round(time.Second) / time.Second)
	if secs < 1 {
		return 1
	}
	if secs > 60 {
		return 60
	}
	return secs
}

// publishLocked renders h's current state into a fresh immutable view and
// swaps it in. Callers hold h.mu (or own h exclusively, pre-register); the
// render touches only coordinator-local state — aggregate counters, the
// work ring, the placement map — never a cluster worker.
func (s *Server) publishLocked(h *hosted) {
	rs := h.eng.Run(0) // zero ticks: aggregate counters only
	v := &popView{st: Status{
		ID:        h.spec.ID,
		Workload:  h.spec.Workload,
		Agents:    h.eng.Agents(),
		Shards:    h.eng.Shards(),
		Seed:      h.spec.Seed,
		Tick:      h.eng.Ticks(),
		ViewTick:  h.eng.Ticks(),
		Steps:     rs.Steps,
		Messages:  rs.Messages,
		Delivered: rs.Delivered,
		Actions:   rs.Actions,
		ModelMean: rs.Observed.Mean(),
		WorkP50:   rs.WorkQuantile(0.50),
		WorkP99:   rs.WorkQuantile(0.99),
		LastCkpt:  h.lastCkpt,
		CkptPath:  h.lastPath,
		PruneErrs: h.pruneErrs,
		LastPrune: h.lastPrune,
	}}
	if ctl := s.opts.cluster; ctl != nil {
		if tr := ctl.transport(h.spec.ID); tr != nil {
			owner, workers := tr.Placement()
			v.placement = &ClusterPopPlacement{ID: h.spec.ID, Owner: owner, Workers: workers}
		}
	}
	h.vs.view.Store(v)
	h.vs.stamp()
}

// explainEntry is one cached rendering; valid only while the population is
// still at .tick (the barrier swap invalidates it by advancing the tick).
type explainEntry struct {
	agent int
	tick  int
	text  string
}

// explainCache is a per-population LRU over rendered explanations, keyed by
// (agent, tick). Renders are the only explain path that needs h.mu (and,
// for cluster-hosted populations, a worker round-trip); the cache makes
// repeated dashboard polls cost one render per agent per tick.
type explainCache struct {
	mu  sync.Mutex
	cap int
	lru *list.List // front = most recent; values are *explainEntry
	idx map[int]*list.Element
}

func newExplainCache(capacity int) *explainCache {
	return &explainCache{cap: capacity, lru: list.New(), idx: make(map[int]*list.Element, capacity)}
}

// get returns the cached text for agent rendered at exactly tick. A stale
// entry (older tick) is evicted on sight rather than kept until capacity
// pressure: after a barrier the whole cache is dead weight.
func (c *explainCache) get(agent, tick int) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[agent]
	if !ok {
		return "", false
	}
	e := el.Value.(*explainEntry)
	if e.tick != tick {
		c.lru.Remove(el)
		delete(c.idx, agent)
		return "", false
	}
	c.lru.MoveToFront(el)
	return e.text, true
}

func (c *explainCache) put(agent, tick int, text string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.idx[agent]; ok {
		el.Value = &explainEntry{agent: agent, tick: tick, text: text}
		c.lru.MoveToFront(el)
		return
	}
	c.idx[agent] = c.lru.PushFront(&explainEntry{agent: agent, tick: tick, text: text})
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.idx, oldest.Value.(*explainEntry).agent)
	}
}

// len reports the live entry count (tests).
func (c *explainCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// truncateExplain caps one rendered explanation at budget bytes, cutting at
// a line boundary where possible so the text stays readable, and appending
// an explicit marker so a truncated explanation can never be mistaken for a
// complete one. A cut that would split a multi-byte rune (stimulus names
// and sources come from ingest JSON) backs up to the rune's first byte, so
// the result is always valid UTF-8.
func truncateExplain(text string, budget int) string {
	if budget <= 0 || len(text) <= budget {
		return text
	}
	cut := budget
	for i := budget; i > budget/2; i-- {
		if text[i-1] == '\n' {
			cut = i
			break
		}
	}
	for cut > 0 && !utf8.RuneStart(text[cut]) {
		cut--
	}
	return text[:cut] + fmt.Sprintf("\n… [explain truncated to %d of %d bytes]\n", cut, len(text))
}
