package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"idlereduce/internal/policy"
	"idlereduce/internal/server"
)

// schedule renders the first n ops of a connection's fleet_100k
// schedule, settling with fixed ids.
func schedule(seed uint64, conn, n int, areas []server.AreaState) [][]byte {
	g := newFleetGen(seed, conn, areas, pickHot(seed, areas, 32))
	ids := make([]string, batchItems)
	for i := range ids {
		ids[i] = fmt.Sprintf("d%d", i)
	}
	var out [][]byte
	for i := 0; i < n; i++ {
		op := g.next()
		out = append(out, op.body)
		if op.kind == opSettle {
			out = append(out, settleBody(op, conn, ids))
		}
	}
	return out
}

func equalBodies(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestGenerationDeterministicPerSeed(t *testing.T) {
	a1, a2, b := genFleetAreas(7, 2000), genFleetAreas(7, 2000), genFleetAreas(8, 2000)
	j1, _ := areasJSON(a1)
	j2, _ := areasJSON(a2)
	jb, _ := areasJSON(b)
	if !bytes.Equal(j1, j2) {
		t.Fatal("areas file differs for the same seed")
	}
	if bytes.Equal(j1, jb) {
		t.Fatal("areas file identical across seeds")
	}
	if s1, s2 := schedule(7, 0, 300, a1), schedule(7, 0, 300, a2); !equalBodies(s1, s2) {
		t.Fatal("fleet schedule differs for the same seed")
	}
	if s1, s2 := schedule(7, 0, 300, a1), schedule(8, 0, 300, a1); equalBodies(s1, s2) {
		t.Fatal("fleet schedule identical across seeds")
	}
	if s0, s1 := schedule(7, 0, 300, a1), schedule(7, 1, 300, a1); equalBodies(s0, s1) {
		t.Fatal("connections share one schedule")
	}
	paper, err := paperAreaStates(paperB)
	if err != nil {
		t.Fatal(err)
	}
	if !equalBodies(hotDecideBodies(7, 0, 100, paper), hotDecideBodies(7, 0, 100, paper)) {
		t.Fatal("hot_decide bodies differ for the same seed")
	}
	if equalBodies(hotDecideBodies(7, 0, 100, paper), hotDecideBodies(8, 0, 100, paper)) {
		t.Fatal("hot_decide bodies identical across seeds")
	}
}

// Every generated area is valid, and every engine the workload sends
// can serve every hot area.
func TestGeneratedAreasServable(t *testing.T) {
	areas := genFleetAreas(3, 5000)
	for _, a := range areas {
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range pickHot(3, areas, hotAreas) {
		var a server.AreaState
		for _, x := range areas {
			if x.ID == id {
				a = x
			}
		}
		for _, eng := range policy.Names() {
			e, _ := policy.Get(eng)
			if _, err := e.Prepare(a.PolicyStats(0)); err != nil {
				t.Errorf("engine %s cannot serve hot area %+v: %v", eng, a, err)
			}
		}
	}
}

// Observe items go only to the connection's own hot areas, so each
// area's stream has one sender.
func TestHotAreasPartitionedPerConnection(t *testing.T) {
	areas := genFleetAreas(5, 1000)
	hot := pickHot(5, areas, 64)
	owner := map[string]int{}
	for c := 0; c < conns; c++ {
		g := newFleetGen(5, c, areas, hot)
		for i := 0; i < 500; i++ {
			op := g.next()
			for _, a := range op.areas {
				if o, ok := owner[a]; ok && o != c {
					t.Fatalf("area %s observed by connections %d and %d", a, o, c)
				}
				owner[a] = c
			}
		}
	}
	if len(owner) == 0 {
		t.Fatal("no observations generated")
	}
}

// Generated bodies decode under the server's strict wire rules.
func TestBodiesDecodeStrictly(t *testing.T) {
	areas := genFleetAreas(9, 500)
	g := newFleetGen(9, 0, areas, pickHot(9, areas, 32))
	for i := 0; i < 200; i++ {
		op := g.next()
		var v any = &server.BatchDecideRequest{}
		if op.kind == opObserve {
			v = &server.BatchObserveRequest{}
		}
		dec := json.NewDecoder(bytes.NewReader(op.body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			t.Fatalf("op %d (kind %d): %v: %s", i, op.kind, err, op.body)
		}
	}
}
