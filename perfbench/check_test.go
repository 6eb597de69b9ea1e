package main

import (
	"testing"

	"secureblox/internal/datalog"
	"secureblox/internal/engine"
)

// lineTruth is graph.ShortestPaths for every node of the path 0 - 1 - 2.
func lineTruth() [][]int {
	return [][]int{{0, 1, 2}, {1, 0, 1}, {2, 1, 0}}
}

func rightRoutes() []map[int]int64 {
	return []map[int]int64{{1: 1, 2: 2}, {0: 1, 2: 1}, {0: 2, 1: 1}}
}

func TestCheckRoutesCountsEveryDiscrepancy(t *testing.T) {
	truth := lineTruth()
	if got := checkRoutes(truth, rightRoutes()); got != (answerCount{Checked: 6}) {
		t.Fatalf("all routes right: got %+v", got)
	}

	wrong := rightRoutes()
	wrong[0][2] = 3 // a longer route than the shortest
	wrong[2][0] = 1 // a shorter one
	if got := checkRoutes(truth, wrong); got != (answerCount{Checked: 6, Failed: 2}) {
		t.Fatalf("two wrong routes: got %+v", got)
	}

	missing := rightRoutes()
	delete(missing[1], 0)
	if got := checkRoutes(truth, missing); got != (answerCount{Checked: 6, Failed: 1}) {
		t.Fatalf("one missing route: got %+v", got)
	}

	extra := rightRoutes()
	extra[1][1] = 0  // a route to itself
	extra[2][-1] = 4 // a route to a node outside the cluster
	if got := checkRoutes(truth, extra); got != (answerCount{Checked: 8, Failed: 2}) {
		t.Fatalf("two extra routes: got %+v", got)
	}
}

func joinParts() [][]engine.Fact {
	f := func(pred string, k, v int64) engine.Fact {
		return engine.Fact{Pred: pred, Tuple: datalog.Tuple{datalog.Int64(k), datalog.Int64(v)}}
	}
	return [][]engine.Fact{
		{f("a", 1, 7), f("b", 10, 7), f("a", 3, 9)},
		{f("a", 2, 7), f("b", 11, 8), f("b", 12, 9)},
	}
}

func joinTuple(e1, e2, e3 int64) datalog.Tuple {
	return datalog.Tuple{datalog.Int64(e1), datalog.Int64(e2), datalog.Int64(e3)}
}

func TestReferenceJoin(t *testing.T) {
	want := map[string]bool{
		joinTuple(1, 7, 10).Key(): true,
		joinTuple(2, 7, 10).Key(): true,
		joinTuple(3, 9, 12).Key(): true,
	}
	got := referenceJoin(joinParts())
	if len(got) != len(want) {
		t.Fatalf("reference join has %d tuples, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Errorf("reference join lacks %s", k)
		}
	}
}

func TestCheckJoinCountsMissingAndExtraTuples(t *testing.T) {
	ref := referenceJoin(joinParts())
	right := []datalog.Tuple{joinTuple(1, 7, 10), joinTuple(2, 7, 10), joinTuple(3, 9, 12)}
	if got := checkJoin(ref, right); got != (answerCount{Checked: 3}) {
		t.Fatalf("right join: got %+v", got)
	}
	// A duplicate of a right tuple is the same answer, not an extra one.
	if got := checkJoin(ref, append(right, joinTuple(1, 7, 10))); got != (answerCount{Checked: 3}) {
		t.Fatalf("duplicated tuple: got %+v", got)
	}
	extra := append(append([]datalog.Tuple(nil), right...), joinTuple(1, 7, 11))
	if got := checkJoin(ref, extra); got != (answerCount{Checked: 4, Failed: 1}) {
		t.Fatalf("one extra tuple: got %+v", got)
	}
	if got := checkJoin(ref, right[1:]); got != (answerCount{Checked: 3, Failed: 1}) {
		t.Fatalf("one missing tuple: got %+v", got)
	}
}
