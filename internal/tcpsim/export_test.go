package tcpsim

import "fmt"

// walkCounters recounts Equation 1's scoreboard variables by walking
// the outstanding window [unaIdx, nxtIdx): the oracle for the counters
// the sender keeps.
func walkCounters(s *Sender) (sackedOut, lostOut, retransOut int) {
	for i := s.unaIdx; i < s.nxtIdx; i++ {
		g := &s.segs[i]
		if g.acked || g.sacked {
			if g.sacked && !g.acked {
				sackedOut++
			}
			continue
		}
		if g.lost {
			lostOut++
		}
		if g.retransOut {
			retransOut++
		}
	}
	return
}

// CounterDrift reports how the sender's kept Equation-1 counters
// differ from a walk of its scoreboard, or "" when they agree.
func CounterDrift(s *Sender) string {
	sacked, lost, retrans := walkCounters(s)
	if sacked == s.sackedOut && lost == s.lostOut && retrans == s.retransOut {
		return ""
	}
	return fmt.Sprintf("kept sacked/lost/retrans_out %d/%d/%d, walk %d/%d/%d",
		s.sackedOut, s.lostOut, s.retransOut, sacked, lost, retrans)
}
