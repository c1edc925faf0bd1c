// Package population is the sharded agent-population engine: it steps tens
// of thousands of core.Agents per simulated tick through an internal/runner
// pool while keeping the simulation bit-for-bit deterministic at any worker
// count.
//
// Agents are partitioned into contiguous shards. Every tick each shard is
// stepped by one pool job using the shard's own persistent RNG stream;
// agents talk to each other through double-buffered mailboxes — stimuli
// sent during tick T are routed at the tick barrier, in shard index order,
// and injected at tick T+1 — so no shard ever reads state another shard is
// writing. Shard RNG streams, agent construction seeds and the barrier's
// merge order depend only on Config (never on the worker count or job
// completion order), so a population configured with S shards produces
// byte-identical results whether the pool runs one worker or thirty-two;
// only the wall time changes. See DESIGN.md for the full contract.
//
// Every agent owns its knowledge store, which takes no lock: a shard job
// owns its agents' stores for the tick, and the barriers hand them over.
// A population whose agents would share a store panics at construction.
// The tick loop is engineered to be allocation-free at steady state: shard
// results are pooled, mailbox slices recycle through a coordinator free
// list, and the work-proxy history is a fixed-size ring (DESIGN.md
// "Hot-path performance").
//
// External stimuli enter through Enqueue, exactly as if a peer had sent
// them at the previous barrier. Admission control (how much outside
// traffic may be pending) belongs to the hosting service, internal/serve;
// the engine accepts whatever it is given and never drops a stimulus.
package population
