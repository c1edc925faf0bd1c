// Package codec holds the binary primitives every byte format of the
// system is spelled with: unsigned and zig-zag varints, fixed-width
// little-endian words, IEEE-754 bit floats, length-prefixed strings and
// float lists. Snapshot files, cluster frames and the agent and store
// state they carry are all built from exactly these, so no two formats can
// drift on how a value is written. The package is a leaf: the types whose
// state it spells import it, never the other way round.
package codec
