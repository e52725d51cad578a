// Package exempt stands in for internal/seqspace itself: the one
// place raw modular arithmetic is the implementation, not a bug.
// Loaded as tcpstall/internal/seqspace/exempt, so no findings.
package exempt

func LessEq(seqA, seqB uint32) bool { return int32(seqA-seqB) <= 0 }

func Diff(seqA, seqB uint32) int32 { return int32(seqA - seqB) }
