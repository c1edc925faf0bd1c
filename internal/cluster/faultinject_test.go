package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"sacs/internal/population"
)

// faultProxy is a frame-aware TCP proxy between a coordinator and one
// worker: it parses the wire protocol's length-prefixed framing in both
// directions and applies injected faults — dropped frames, delays,
// duplicated frames, connection kills, mid-frame kills — to specific
// message types. It is the test-side instrument for the migration
// atomicity contract: whatever the network does to a migration in flight,
// either the source worker stays authoritative or the failure is loud.
type faultProxy struct {
	ln     net.Listener
	target string

	mu    sync.Mutex
	rules []*faultRule
	conns map[net.Conn]struct{}
}

// faultRule applies action to the next count frames of type typ flowing in
// direction dir ("req" coordinator→worker, "rep" worker→coordinator).
type faultRule struct {
	dir    string
	typ    msgType
	action string // drop, delay, dup, kill, killmid
	delay  time.Duration
	count  int
}

func newFaultProxy(t *testing.T, target string) *faultProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listen: %v", err)
	}
	p := &faultProxy{ln: ln, target: target, conns: make(map[net.Conn]struct{})}
	go p.serve()
	t.Cleanup(p.close)
	return p
}

func (p *faultProxy) addr() string { return p.ln.Addr().String() }

func (p *faultProxy) inject(dir string, typ msgType, action string, delay time.Duration, count int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rules = append(p.rules, &faultRule{dir: dir, typ: typ, action: action, delay: delay, count: count})
}

// match consumes one application of the first live rule for (dir, typ).
func (p *faultProxy) match(dir string, typ msgType) *faultRule {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.rules {
		if r.dir == dir && r.typ == typ && r.count > 0 {
			r.count--
			return r
		}
	}
	return nil
}

func (p *faultProxy) close() {
	p.ln.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := range p.conns {
		c.Close()
	}
}

func (p *faultProxy) serve() {
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		srv, err := net.Dial("tcp", p.target)
		if err != nil {
			client.Close()
			continue
		}
		p.mu.Lock()
		p.conns[client] = struct{}{}
		p.conns[srv] = struct{}{}
		p.mu.Unlock()
		kill := func() {
			client.Close()
			srv.Close()
		}
		go p.pump("req", client, srv, kill)
		go p.pump("rep", srv, client, kill)
	}
}

// pump relays frames from→to, applying matching fault rules.
func (p *faultProxy) pump(dir string, from, to net.Conn, kill func()) {
	br, bw := bufio.NewReader(from), bufio.NewWriter(to)
	forward := func(typ msgType, body []byte) error {
		if err := writeFrame(bw, typ, body); err != nil {
			return err
		}
		return bw.Flush()
	}
	for {
		typ, body, err := readFrame(br, nil)
		if err != nil {
			kill()
			return
		}
		r := p.match(dir, typ)
		if r == nil {
			if forward(typ, body) != nil {
				kill()
				return
			}
			continue
		}
		switch r.action {
		case "drop":
			// swallowed: the receiver waits forever (or to its deadline)
		case "delay":
			time.Sleep(r.delay)
			if forward(typ, body) != nil {
				kill()
				return
			}
		case "dup":
			if forward(typ, body) != nil || forward(typ, body) != nil {
				kill()
				return
			}
		case "kill":
			kill()
			return
		case "killmid":
			// A full header promising more than arrives: the reader blocks
			// mid-frame until the close turns it into a read error.
			var hdr [5]byte
			binary.LittleEndian.PutUint32(hdr[:4], uint32(len(body)+1))
			hdr[4] = byte(typ)
			to.Write(hdr[:])
			to.Write(body[:len(body)/2])
			kill()
			return
		}
	}
}

// proxyCluster wires a two-worker cluster with every worker behind its own
// fault proxy, plus the in-process reference engine ticking in lock-step.
func proxyCluster(t *testing.T) (ref, eng *population.Engine, tr *Transport, cl *Client, workers []*Worker, proxies []*faultProxy) {
	t.Helper()
	addrs, ws := startWorkers(t, 2)
	proxies = make([]*faultProxy, len(addrs))
	paddrs := make([]string, len(addrs))
	for i, a := range addrs {
		proxies[i] = newFaultProxy(t, a)
		paddrs[i] = proxies[i].addr()
	}
	cl = dialAll(t, paddrs)
	tr, err := cl.NewTransport(testSpec("p"))
	if err != nil {
		t.Fatalf("transport: %v", err)
	}
	eng, err = population.NewWithTransport(testBuild(tAgents, tShards, tSeed, nil), tr)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	ref = population.New(testBuild(tAgents, tShards, tSeed, nil))
	return ref, eng, tr, cl, ws, proxies
}

// TestFaultMigrateDrainFailureLeavesSourceAuthoritative: the connection
// dies during the drain step (cleanly after a frame, or mid-frame), the
// migration fails, the source keeps serving its shards, and after a redial
// the run — and a retried migration — continue byte-identically.
func TestFaultMigrateDrainFailureLeavesSourceAuthoritative(t *testing.T) {
	for _, action := range []string{"kill", "killmid"} {
		t.Run(action, func(t *testing.T) {
			ref, eng, tr, cl, _, proxies := proxyCluster(t)
			tick := 0
			run := func(n int) {
				for ; n > 0; n-- {
					tickBoth(t, tick, ref, eng)
					tick++
				}
			}
			run(5)
			proxies[0].inject("rep", msgRange, action, 0, 1)
			if err := tr.Migrate(0, 2, 1); err == nil || !strings.Contains(err.Error(), "drain") {
				t.Fatalf("drain-killed migrate: %v", err)
			}
			if got := tr.Owner()[0]; got != 0 {
				t.Fatalf("owner of shard 0 is %d after failed migration, want 0 (source authoritative)", got)
			}
			if err := cl.Redial(0, 5*time.Second); err != nil {
				t.Fatalf("redial: %v", err)
			}
			run(5)
			if err := tr.Migrate(0, 2, 1); err != nil {
				t.Fatalf("retried migrate: %v", err)
			}
			run(5)
			if !bytes.Equal(encodeSnap(t, ref), encodeSnap(t, eng)) {
				t.Fatal("run diverged after drain fault + recovery")
			}
		})
	}
}

// TestFaultAdoptRequestKillLeavesSourceAuthoritative: the adopt request
// never reaches the destination; the migration fails with the source
// untouched, and after redialling the destination the run and a retried
// migration continue byte-identically.
func TestFaultAdoptRequestKillLeavesSourceAuthoritative(t *testing.T) {
	ref, eng, tr, cl, workers, proxies := proxyCluster(t)
	tick := 0
	run := func(n int) {
		for ; n > 0; n-- {
			tickBoth(t, tick, ref, eng)
			tick++
		}
	}
	run(5)
	proxies[1].inject("req", msgAdopt, "kill", 0, 1)
	if err := tr.Migrate(0, 2, 1); err == nil || !strings.Contains(err.Error(), "source still authoritative") {
		t.Fatalf("adopt-killed migrate: %v", err)
	}
	if got := hostedRuns(t, workers[1], "p"); len(got) != 1 || got[0] != (span{4, 8}) {
		t.Fatalf("destination hosts %v after failed adopt, want only [{4 8}]", got)
	}
	if err := cl.Redial(1, 5*time.Second); err != nil {
		t.Fatalf("redial: %v", err)
	}
	run(5)
	if err := tr.Migrate(0, 2, 1); err != nil {
		t.Fatalf("retried migrate: %v", err)
	}
	run(5)
	if !bytes.Equal(encodeSnap(t, ref), encodeSnap(t, eng)) {
		t.Fatal("run diverged after adopt fault + recovery")
	}
}

// TestFaultReleaseDropRollsBackDestination: the commit-point release never
// reaches the source (dropped; the RPC deadline fires). The coordinator
// rolls the destination's adopt back, the source stays authoritative, and
// after a redial the run and a retried migration continue byte-identically
// — a migration is all-or-nothing even when it fails between adopt and
// release.
func TestFaultReleaseDropRollsBackDestination(t *testing.T) {
	ref, eng, tr, cl, workers, proxies := proxyCluster(t)
	tick := 0
	run := func(n int) {
		for ; n > 0; n-- {
			tickBoth(t, tick, ref, eng)
			tick++
		}
	}
	run(5)
	proxies[0].inject("req", msgRelease, "drop", 0, 1)
	cl.SetRPCTimeout(300 * time.Millisecond)
	if err := tr.Migrate(0, 2, 1); err == nil || !strings.Contains(err.Error(), "source authoritative") {
		t.Fatalf("release-dropped migrate: %v", err)
	}
	cl.SetRPCTimeout(0)
	if got := hostedRuns(t, workers[1], "p"); len(got) != 1 || got[0] != (span{4, 8}) {
		t.Fatalf("destination hosts %v after rollback, want only [{4 8}]", got)
	}
	if got := tr.Owner()[0]; got != 0 {
		t.Fatalf("owner of shard 0 is %d, want 0", got)
	}
	if err := cl.Redial(0, 5*time.Second); err != nil {
		t.Fatalf("redial: %v", err)
	}
	run(5)
	if err := tr.Migrate(0, 2, 1); err != nil {
		t.Fatalf("retried migrate: %v", err)
	}
	run(5)
	if !bytes.Equal(encodeSnap(t, ref), encodeSnap(t, eng)) {
		t.Fatal("run diverged after release fault + recovery")
	}
}

// TestFaultReleaseReplyKillPoisonsOnSplitOwnership: the source processes
// the release but its reply dies with the connection — the one failure
// where the range's state genuinely ends up nowhere (the destination's
// rollback also ran, by design: keeping it could double-step if the source
// had not processed). The next tick must fail loudly with a split-ownership
// error and poison the engine — never silently diverge.
func TestFaultReleaseReplyKillPoisonsOnSplitOwnership(t *testing.T) {
	ref, eng, tr, cl, _, proxies := proxyCluster(t)
	for i := 0; i < 5; i++ {
		tickBoth(t, i, ref, eng)
	}
	// During Migrate the source answers msgRange (drain), then msgOK
	// (release): the rule fires on the release reply only.
	proxies[0].inject("rep", msgOK, "kill", 0, 1)
	if err := tr.Migrate(0, 2, 1); err == nil || !strings.Contains(err.Error(), "release") {
		t.Fatalf("release-reply-killed migrate: %v", err)
	}
	if err := cl.Redial(0, 5*time.Second); err != nil {
		t.Fatalf("redial: %v", err)
	}
	// The mismatch surfaces at the first routing check it hits: the worker
	// refusing mail for agents it no longer owns, or the coordinator's
	// exchange-count check — either way loud, never silent.
	if _, err := eng.TickErr(); err == nil ||
		!(strings.Contains(err.Error(), "split ownership") || strings.Contains(err.Error(), "outside owned ranges")) {
		t.Fatalf("tick after split ownership: %v", err)
	}
	if _, err := eng.TickErr(); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("engine not poisoned after split ownership: %v", err)
	}
}

// TestFaultDelayedRepliesHarmless: latency is not a fault — delayed tick
// replies change nothing observable.
func TestFaultDelayedRepliesHarmless(t *testing.T) {
	ref, eng, _, _, _, proxies := proxyCluster(t)
	proxies[1].inject("rep", msgTickOK, "delay", 30*time.Millisecond, 2)
	for i := 0; i < 6; i++ {
		tickBoth(t, i, ref, eng)
	}
	if !bytes.Equal(encodeSnap(t, ref), encodeSnap(t, eng)) {
		t.Fatal("delayed replies changed the run")
	}
}

// TestFaultDuplicatedReplyFailsLoudly: a byzantine duplicate frame breaks
// the strict request/reply discipline. The next mismatched read fails
// loudly (a snapshot error — which never poisons the engine), and a redial
// flushes the stale frame so the snapshot then succeeds and matches the
// reference bit for bit.
func TestFaultDuplicatedReplyFailsLoudly(t *testing.T) {
	ref, eng, _, cl, _, proxies := proxyCluster(t)
	for i := 0; i < 5; i++ {
		tickBoth(t, i, ref, eng)
	}
	proxies[1].inject("rep", msgTickOK, "dup", 0, 1)
	tickBoth(t, 5, ref, eng) // consumes the first copy; the duplicate lingers
	if _, err := eng.Snapshot(); err == nil || !strings.Contains(err.Error(), "reply type") {
		t.Fatalf("snapshot reading a duplicated frame: %v", err)
	}
	if err := cl.Redial(1, 5*time.Second); err != nil {
		t.Fatalf("redial: %v", err)
	}
	if !bytes.Equal(encodeSnap(t, ref), encodeSnap(t, eng)) {
		t.Fatal("snapshot after redial diverges")
	}
	// Snapshot failures never poison: the run continues.
	for i := 6; i < 9; i++ {
		tickBoth(t, i, ref, eng)
	}
}

// TestFaultDroppedExportTimesOutWithoutPoison: a swallowed export request
// turns into a deadline error on the coordinator; the engine is not
// poisoned, and after a redial the snapshot succeeds and the run continues
// byte-identically.
func TestFaultDroppedExportTimesOutWithoutPoison(t *testing.T) {
	ref, eng, _, cl, _, proxies := proxyCluster(t)
	for i := 0; i < 5; i++ {
		tickBoth(t, i, ref, eng)
	}
	proxies[0].inject("req", msgDrain, "drop", 0, 1)
	cl.SetRPCTimeout(300 * time.Millisecond)
	if _, err := eng.Snapshot(); err == nil {
		t.Fatal("snapshot with dropped export should time out")
	}
	cl.SetRPCTimeout(0)
	if err := cl.Redial(0, 5*time.Second); err != nil {
		t.Fatalf("redial: %v", err)
	}
	if !bytes.Equal(encodeSnap(t, ref), encodeSnap(t, eng)) {
		t.Fatal("snapshot after timeout + redial diverges")
	}
	for i := 5; i < 8; i++ {
		tickBoth(t, i, ref, eng)
	}
}
