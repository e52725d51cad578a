// Package lint is TAPO's in-repo static-analysis suite: a small,
// dependency-free analysis framework (modelled on the shape of
// golang.org/x/tools/go/analysis, but built only on the standard
// library's go/ast, go/types and `go list -export`) plus the
// analyzers that enforce the repo's own correctness invariants.
//
// The paper's methodology stands or falls on faithfully mimicking
// kernel TCP state from the wire. Several of the rules that make the
// reproduction sound are invisible to the compiler:
//
//   - seqsafe: wire sequence numbers are modular uint32 values; a raw
//     <, >, <=, >= or - on them silently inverts at the 2^32 wrap.
//     Outside internal/seqspace every ordered comparison or distance
//     must go through seqspace.LessEq/Diff or an Unwrapper.
//   - detclock: the simulator, analyzer and ground-truth packages are
//     deterministic by contract — one seed, one output. time.Now,
//     wall-clock timers, the global math/rand state and output emitted
//     in map-iteration order all break that silently.
//   - lockcheck: fields annotated `// guarded by <mu>` must only be
//     touched with the named sibling mutex held (or from a function
//     following the *Locked caller-holds convention, or during
//     construction before the value is shared).
//   - evpurity: the flight recorder observes the analyzer, never
//     steers it. Code guarded by recorder attachment must not mutate
//     analyzer state, so the nil-recorder run is branch-identical;
//     flight observers must not write through the values they are
//     shown.
//   - jsontags: structs serialized on the HTTP/JSONL surfaces carry
//     complete, snake_case, duplicate-free json tags.
//   - hotalloc: functions marked `tapo:hotpath` sit on the live
//     monitor's per-record path and promise not to allocate; the
//     allocating builtins, closures and interface boxing inside them
//     are flagged so the promise is audited, not assumed.
//
// Run the whole suite with:
//
//	go run ./cmd/tapolint ./...
//
// A finding can be suppressed — with a mandatory justification — by a
// directive on the same line or the line above:
//
//	//lint:allow <analyzer> <reason>
//
// A reasonless directive is itself a finding. Test files are not
// analyzed: the invariants guard the production analysis paths, and
// tests legitimately reach for wall clocks and raw wire values.
package lint
