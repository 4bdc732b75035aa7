package sgen

import "datasynth/internal/xrand"

// seq is the sequential randomness source for batch generators (LFR,
// BTER, …) whose algorithms are inherently sequential. It is a thin
// alias over xrand.Seq (sequential splitmix64 — one mix per draw,
// versus two for the addressable Stream). Determinism is preserved: a
// fixed seed yields a fixed sequence.
type seq struct {
	xrand.Seq
}

func newSeq(seed uint64) *seq { return &seq{*xrand.NewSeq(seed)} }

// newSeqFromStream keys a sequential source off an already-derived
// stream (e.g. a per-shard child from Stream.DeriveN), so shards can
// consume randomness independently of each other and of the parent.
func newSeqFromStream(s xrand.Stream) *seq { return &seq{*xrand.NewSeq(s.Seed())} }
