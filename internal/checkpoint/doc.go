// Package checkpoint serialises population snapshots into a versioned,
// checksummed binary format and manages snapshot files on disk. It is the
// durability layer under cmd/sawd: a long-lived population is periodically
// streamed to a file with WriteStream (Encode and Write take a materialised
// snapshot), and after a crash or restart the latest intact file is decoded
// and handed to population.Restore, which continues the simulation
// byte-identically (the resume-determinism contract in DESIGN.md).
//
// The wire format (documented in full in DESIGN.md, "Snapshot wire
// format") is deliberately boring: a fixed header — 8-byte magic
// "SACSNAP\x01", little-endian uint32 version, little-endian uint64 payload
// length — followed by the payload: the head's frame, then one frame per
// shard run, each a uvarint length, the bytes and their CRC-32C. Inside a
// frame the fields are a fixed order of varints, length-prefixed strings
// and IEEE-754 bits; map-shaped data (snapshot metadata, store entries) is
// sorted before encoding, so equal states always encode to equal bytes.
// That byte-determinism is load-bearing: experiment S2 proves resume
// correctness by comparing encoded snapshots with bytes.Equal.
//
// Decode verifies magic, version, length and each frame's checksum before
// interpreting its bytes, so truncated or bit-flipped files fail with
// ErrCorrupt, naming the damaged shard, rather than yielding a silently
// wrong population.
package checkpoint
