// Package knowledge implements the self-model store at the heart of the
// framework: named, scoped models with confidence, provenance and bounded
// history. The paper's definition of self-awareness — knowledge of internal
// state, history, environment and goals — is realised as entries in this
// store, which the reasoner reads, the learners write, and the explainer
// cites.
//
// A store is one system's private self-knowledge and has one owner at a
// time: nothing in it is synchronized, so it is used by one goroutine at a
// time, and whatever hands it to another goroutine (a population's tick
// barrier) orders the two (see DESIGN.md "Knowledge-store concurrency").
// Names can be interned into dense Key handles so steady-state loops never
// hash or concatenate strings (DESIGN.md "Hot-path performance").
//
// A store's one registry is its symbol table: a 16 B slot per name, which
// Key k indexes at k-1, and an open-addressed index of Keys hashed with a
// per-process seed. A name is stored once, as the Name of the entry its
// slot holds; a slot with no live model keeps the entry it last held, or a
// name-only entry that its first write turns into the model.
package knowledge
