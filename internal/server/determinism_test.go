package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestDecideDeterministicAcrossInstances is the serving determinism
// contract: identical requests with the same seed return byte-identical
// bodies regardless of sibling traffic or which server instance
// answers. N-Rand draws are covered by an area in the N-Rand region.
func TestDecideDeterministicAcrossInstances(t *testing.T) {
	singles := []string{
		`{"vehicle_id":"det-1","area":"chicago","seed":11}`,
		`{"vehicle_id":"det-1","area":"chicago","b":60,"seed":11}`,
		`{"vehicle_id":"rnd-1","area":"nrandia","seed":11}`,
		`{"vehicle_id":"rnd-2","area":"nrandia","seed":12}`,
	}
	batch := `{"seed":11,"requests":[
		{"vehicle_id":"rnd-1","area":"nrandia"},
		{"vehicle_id":"det-1","area":"chicago"},
		{"vehicle_id":"rnd-9","area":"nrandia","seed":99},
		{"vehicle_id":"det-2","area":"atlanta","b":45}]}`

	var wantSingles [][]byte
	var wantBatch []byte
	for inst := 0; inst < 3; inst++ {
		t.Run(fmt.Sprintf("instance=%d", inst), func(t *testing.T) {
			areas := append(testAreas(),
				// Statistics deep in the N-Rand region so the reply
				// exercises the randomized threshold draw.
				AreaState{ID: "nrandia", B: 28, Mu: 4, Q: 0.25})
			s, err := New(Config{Areas: areas})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			for i, body := range singles {
				// Each request twice: replies must be stable within a
				// server, not just across servers.
				for rep := 0; rep < 2; rep++ {
					status, raw := doJSON(t, "POST", ts.URL+"/v1/decide", body, nil)
					if status != http.StatusOK {
						t.Fatalf("single %d status %d: %s", i, status, raw)
					}
					if inst == 0 && rep == 0 {
						wantSingles = append(wantSingles, raw)
					} else if !bytes.Equal(raw, wantSingles[i]) {
						t.Errorf("single %d diverged:\n%s\n%s", i, raw, wantSingles[i])
					}
				}
			}
			status, raw := doJSON(t, "POST", ts.URL+"/v1/decide/batch", batch, nil)
			if status != http.StatusOK {
				t.Fatalf("batch status %d: %s", status, raw)
			}
			if inst == 0 {
				wantBatch = raw
			} else if !bytes.Equal(raw, wantBatch) {
				t.Errorf("batch diverged at instance=%d:\n%s\n%s", inst, raw, wantBatch)
			}
		})
	}
}

// TestDecideDeterministicAcrossShards: replies over a 64-area cache are
// byte-equal across fresh server instances, including after concurrent
// clients have served interleaved traffic. (The name predates the
// per-area views, which replaced the sharded cache.)
func TestDecideDeterministicAcrossShards(t *testing.T) {
	areas := append(testAreas(),
		AreaState{ID: "nrandia", B: 28, Mu: 4, Q: 0.25})
	areas = append(areas, SyntheticAreaStates(61, 28)...)

	singles := []string{
		`{"vehicle_id":"s-1","area":"chicago","seed":11}`,
		`{"vehicle_id":"s-2","area":"syn-000037","seed":12}`,
		`{"vehicle_id":"s-3","area":"nrandia","seed":13}`,
		`{"vehicle_id":"s-4","area":"chicago","b":55,"seed":14}`,
	}
	batch := `{"seed":11,"requests":[
		{"vehicle_id":"b-1","area":"nrandia"},
		{"vehicle_id":"b-2","area":"syn-000007"},
		{"vehicle_id":"b-3","area":"syn-000042","b":33},
		{"vehicle_id":"b-4","area":"atlanta"}]}`

	var wantSingles [][]byte
	var wantBatch []byte
	first := true
	for inst := 0; inst < 3; inst++ {
		name := fmt.Sprintf("instance=%d", inst)
		t.Run(name, func(t *testing.T) {
			s, err := New(Config{Areas: areas})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			// Concurrent clients first, so the byte-compare below runs
			// against a cache that has already served interleaved
			// traffic.
			var wg sync.WaitGroup
			for cl := 0; cl < 4; cl++ {
				wg.Add(1)
				go func(cl int) {
					defer wg.Done()
					for r := 0; r < 8; r++ {
						body := fmt.Sprintf(`{"vehicle_id":"cc-%d","area":"syn-%06d","seed":9}`, cl, (cl*13+r)%61)
						doJSON(t, "POST", ts.URL+"/v1/decide", body, nil)
					}
				}(cl)
			}
			wg.Wait()

			for i, body := range singles {
				status, raw := doJSON(t, "POST", ts.URL+"/v1/decide", body, nil)
				if status != http.StatusOK {
					t.Fatalf("single %d status %d: %s", i, status, raw)
				}
				if first {
					wantSingles = append(wantSingles, raw)
				} else if !bytes.Equal(raw, wantSingles[i]) {
					t.Errorf("single %d diverged at %s:\n%s\n%s", i, name, raw, wantSingles[i])
				}
			}
			status, raw := doJSON(t, "POST", ts.URL+"/v1/decide/batch", batch, nil)
			if status != http.StatusOK {
				t.Fatalf("batch status %d: %s", status, raw)
			}
			if first {
				wantBatch = raw
				first = false
			} else if !bytes.Equal(raw, wantBatch) {
				t.Errorf("batch diverged at %s:\n%s\n%s", name, raw, wantBatch)
			}
		})
	}
}

// TestDecideSeedAndIdentityChangeDraws checks the opposite direction:
// distinct seeds or vehicle IDs give independent N-Rand draws, so the
// server is not accidentally serving one frozen threshold.
func TestDecideSeedAndIdentityChangeDraws(t *testing.T) {
	areas := []AreaState{{ID: "nrandia", B: 28, Mu: 4, Q: 0.25}}
	_, ts := newTestServerAreas(t, areas)
	draw := func(body string) float64 {
		var resp DecideResponse
		if status, raw := doJSON(t, "POST", ts.URL+"/v1/decide", body, &resp); status != 200 {
			t.Fatalf("status %d: %s", status, raw)
		}
		if resp.Choice != "N-Rand" {
			t.Fatalf("choice %s, want N-Rand", resp.Choice)
		}
		return resp.ThresholdSec
	}
	base := draw(`{"vehicle_id":"v","area":"nrandia","seed":5}`)
	if other := draw(`{"vehicle_id":"v","area":"nrandia","seed":6}`); other == base {
		t.Errorf("seed change kept threshold %v", base)
	}
	if other := draw(`{"vehicle_id":"w","area":"nrandia","seed":5}`); other == base {
		t.Errorf("vehicle change kept threshold %v", base)
	}
	if again := draw(`{"vehicle_id":"v","area":"nrandia","seed":5}`); again != base {
		t.Errorf("replay drew %v, want %v", again, base)
	}
}

// newTestServerAreas is newTestServer with explicit areas.
func newTestServerAreas(t *testing.T, areas []AreaState) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{Areas: areas})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}
