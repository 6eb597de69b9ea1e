package main

import (
	"secureblox/internal/datalog"
	"secureblox/internal/engine"
)

// answerCount is one repetition's answer check: how many answers were
// checked and how many of them failed (wrong, missing or extra).
type answerCount struct {
	Checked int `json:"checked"`
	Failed  int `json:"failed"`
}

// checkRoutes compares every node's best-cost table against ground truth.
// want[i] holds node i's true hop count to every node (negative for
// unreachable, ignored at i itself), as graph.ShortestPaths returns it;
// got[i] maps destination index to node i's bestcost entry. Every route
// the truth defines is checked; a missing or wrong one fails. A bestcost
// entry the truth does not define (to itself or an unreachable node) is
// an extra answer: checked and failed. Unlike
// apps.ValidateShortestPaths, it counts every discrepancy instead of
// stopping at the first.
func checkRoutes(want [][]int, got []map[int]int64) answerCount {
	var a answerCount
	for i, truth := range want {
		for j, cost := range truth {
			if j == i || cost < 0 {
				continue
			}
			a.Checked++
			if c, ok := got[i][j]; !ok || c != int64(cost) {
				a.Failed++
			}
		}
		for j := range got[i] {
			if j == i || j < 0 || j >= len(truth) || truth[j] < 0 {
				a.Checked++
				a.Failed++
			}
		}
	}
	return a
}

// referenceJoin computes A ⋈ B on the join attribute from the hash join's
// initial partitions, independently of the program: the expected
// joinresult(E1, E2, E3) set for a(E1, E2), b(E3, E2), keyed by
// datalog.Tuple.Key.
func referenceJoin(parts [][]engine.Fact) map[string]bool {
	byVal := map[string][]datalog.Value{}
	var bs []datalog.Tuple
	for _, p := range parts {
		for _, f := range p {
			switch f.Pred {
			case "a":
				k := f.Tuple[1].String()
				byVal[k] = append(byVal[k], f.Tuple[0])
			case "b":
				bs = append(bs, f.Tuple)
			}
		}
	}
	out := map[string]bool{}
	for _, b := range bs {
		for _, e1 := range byVal[b[1].String()] {
			out[datalog.Tuple{e1, b[1], b[0]}.Key()] = true
		}
	}
	return out
}

// checkJoin compares the initiator's joinresult extent to the reference
// join. Every expected tuple is checked and fails when missing; every
// produced tuple outside the reference is an extra answer, checked and
// failed.
func checkJoin(want map[string]bool, got []datalog.Tuple) answerCount {
	a := answerCount{Checked: len(want)}
	seen := make(map[string]bool, len(got))
	for _, t := range got {
		k := t.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		if !want[k] {
			a.Checked++
			a.Failed++
		}
	}
	for k := range want {
		if !seen[k] {
			a.Failed++
		}
	}
	return a
}
