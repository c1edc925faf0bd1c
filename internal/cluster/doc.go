// Package cluster runs a sharded population across processes: a
// coordinator process owns the tick barrier, mailbox routing, counters and
// external ingest (it hosts a plain population.Engine), while each worker
// process hosts a set of the population's shards and steps them with its
// own runner.Pool. The two halves meet at population.Transport: the
// coordinator's engine talks to a cluster.Transport, which fans every tick
// out to the workers over a length-prefixed TCP protocol whose payloads are
// spelled with the same primitives as checkpoint files (internal/codec), so
// a stimulus or an agent state has exactly one byte-level spelling in the
// whole system.
//
// The determinism contract survives the process split unchanged: for a
// fixed shard count and a fixed worker list order, a cluster run is
// byte-identical to the single-process run — same TickStats, same snapshot
// bytes (experiment S3 asserts this literally with bytes.Equal). Worker
// start and rebalance use shard-granular slices of the ordinary snapshot
// format (population.RangeState) as the state-transfer vehicle: a restored
// coordinator pushes each worker its range of the checkpoint, which is also
// how a replacement worker is brought to the population's current state.
//
// Failure model: the coordinator is the single source of durable truth
// (checkpoints are taken from the coordinator's engine, which gathers
// worker state through Transport.Export). A worker failure mid-tick
// surfaces as a transport error; the engine poisons itself — the tick may
// have half-applied remotely — and the operator restarts the failed worker
// and resumes the coordinator from the latest checkpoint. cmd/sawd wires
// both roles: `sawd -worker ADDR` hosts shards, `sawd -cluster A,B,...`
// serves the usual HTTP API over a clustered engine.
package cluster
