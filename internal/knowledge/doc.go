// Package knowledge implements the self-model store at the heart of the
// framework: named, scoped models with confidence, provenance and bounded
// history. The paper's definition of self-awareness — knowledge of internal
// state, history, environment and goals — is realised as entries in this
// store, which the reasoner reads, the learners write, and the explainer
// cites.
//
// Two hot-path facilities keep per-tick model access cheap (see DESIGN.md
// "Hot-path performance"): names can be interned into dense Key handles so
// steady-state loops never hash or concatenate strings, and a store with a
// single owning goroutine can be marked Unshared to elide the registry
// lock, the per-entry locks and the atomic instrumentation counters that
// shared (collective) stores keep.
//
// A store's one registry is its symbol table: a 16 B slot per name, which
// Key k indexes at k-1, and an open-addressed index of Keys hashed with a
// per-process seed. A name is stored once, as the Name of the entry its
// slot holds; a slot with no live model keeps the entry it last held, or a
// name-only entry that its first write turns into the model.
package knowledge
