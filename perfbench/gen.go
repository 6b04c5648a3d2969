package main

// Input generation. Every input a workload sends or loads is a pure
// function of the run seed: the areas file, the request bodies, the
// stop lengths and the vehicle ids. The generator uses its own RNG
// streams (math/rand/v2 PCG), not the repository's, so a change to the
// program never changes what the benchmark sends.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"

	"idlereduce/internal/fleet"
	"idlereduce/internal/server"
	"idlereduce/internal/skirental"
)

const (
	// paperB is the SSV break-even interval every hot_decide request
	// uses (seconds).
	paperB = 28.0
	// fleetVehicles is the paper fleet size (217 + 312 + 653); vehicle
	// ids are drawn from it.
	fleetVehicles = 1182
	// batchItems is the item count of every fleet_100k batch.
	batchItems = 16
	// fleetAreas is the area count fleet_100k boots.
	fleetAreas = 100_000
	// hotAreas is the number of fleet_100k areas that receive
	// observations, settles and non-default engines; half belong to
	// each connection.
	hotAreas = 256
	// regimeLen is the number of observations per area after which
	// the stop-length regime flips, so CUSUM drift alarms keep firing.
	regimeLen = 1000
	// conns is the number of keep-alive client connections (one per
	// vCPU of the reference machine).
	conns = 2
)

// newRNG derives an independent deterministic stream of the run seed.
func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream^0x9e3779b97f4a7c15))
}

// paperAreaStates measures the serving statistics of the three paper
// areas at break-even interval b from their stop-length mixtures.
func paperAreaStates(b float64) ([]server.AreaState, error) {
	var out []server.AreaState
	for _, a := range fleet.DefaultAreas() {
		s := skirental.StatsOf(a.StopLengthDistribution(), b)
		st := server.AreaState{ID: strings.ToLower(a.Name), B: b, Mu: s.MuBMinus, Q: s.QBPlus}
		if err := st.Validate(); err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// hotDecideBodies returns n single-decide bodies for one connection:
// a paper-fleet vehicle, one of the areas, and an explicit seed.
func hotDecideBodies(seed uint64, conn, n int, areas []server.AreaState) [][]byte {
	rng := newRNG(seed, uint64(100+conn))
	out := make([][]byte, n)
	for i := range out {
		a := areas[rng.IntN(len(areas))].ID
		out[i] = fmt.Appendf(nil, `{"vehicle_id":"veh-%04d","area":%q,"seed":%d}`,
			rng.IntN(fleetVehicles), a, 1+rng.Uint64N(1<<52))
	}
	return out
}

// round4 rounds to four decimals so the areas file stays compact.
func round4(x float64) float64 { return math.Round(x*1e4) / 1e4 }

// genFleetAreas returns n areas with ids area-000000... and seeded
// statistics: B is 28 s or 47 s, q in [0.02, 0.42), and mu inside
// [0.1, 0.85)·B(1-q), so every engine can serve every area.
func genFleetAreas(seed uint64, n int) []server.AreaState {
	rng := newRNG(seed, 1)
	out := make([]server.AreaState, n)
	for i := range out {
		b := 28.0
		if rng.IntN(4) == 0 {
			b = 47
		}
		q := round4(0.02 + 0.4*rng.Float64())
		mu := round4(b * (1 - q) * (0.1 + 0.75*rng.Float64()))
		out[i] = server.AreaState{ID: fmt.Sprintf("area-%06d", i), B: b, Mu: mu, Q: q}
	}
	return out
}

// areasJSON renders areas as an idled -areas file.
func areasJSON(areas []server.AreaState) ([]byte, error) {
	return json.Marshal(areas)
}

// pickHot returns the seeded hot subset of areas (distinct indices).
func pickHot(seed uint64, areas []server.AreaState, h int) []string {
	rng := newRNG(seed, 2)
	h = min(h, len(areas))
	out := make([]string, h)
	for i, j := range rng.Perm(len(areas))[:h] {
		out[i] = areas[j].ID
	}
	return out
}

// opKind is one fleet_100k request kind.
type opKind int

const (
	opFill    opKind = iota // warm-up: non-default engines on hot areas
	opDecide                // 16-item decide batch
	opObserve               // 16-item observe batch on this connection's hot areas
	opSettle                // ledger decide batch, then the observe batch settling it
)

// fleetOp is one scheduled fleet_100k operation.
type fleetOp struct {
	kind opKind
	k    int // the op's index in its connection's schedule
	// body is the decide batch (fill, decide, settle) or the observe
	// batch (observe).
	body []byte
	// decisions and customB count the decide items and, of those, the
	// items with a custom B (cache misses).
	decisions, customB int
	// areas and stops describe the observe items (observe) or the
	// settling observations (settle), in order.
	areas []string
	stops []float64
	// orphan is the settle slot whose decision id is replaced by an id
	// the ledger never issued (-1: none).
	orphan int
}

// fleetGen produces one connection's fleet_100k schedule.
type fleetGen struct {
	rng   *rand.Rand
	conn  int
	areas []server.AreaState
	hot   []string // every hot area
	mine  []string // hot areas only this connection observes
	// seen counts the observations sent per area (orphans excluded);
	// it drives the regime flips, which start at a seeded per-area
	// offset so retunes fire at a steady rate from the start. history
	// keeps the observations in send order for the retune model.
	seen    map[string]int
	offset  map[string]int
	history map[string][]float64
	fill    []fleetOp
	k       int
}

// newFleetGen builds connection conn's schedule. Hot areas are
// partitioned by index parity so each area's observation stream comes
// from one connection in a fixed order.
func newFleetGen(seed uint64, conn int, areas []server.AreaState, hot []string) *fleetGen {
	g := &fleetGen{
		rng: newRNG(seed, uint64(10+conn)), conn: conn, areas: areas, hot: hot,
		seen: map[string]int{}, offset: map[string]int{}, history: map[string][]float64{},
	}
	off := newRNG(seed, 3)
	for _, id := range hot {
		g.offset[id] = off.IntN(2 * regimeLen)
	}
	for i, id := range hot {
		if i%conns == conn {
			g.mine = append(g.mine, id)
		}
	}
	// Fill: one default-engine decide per area of this connection's
	// half, so every area's lazily created metrics exist before timing
	// (otherwise memory would grow with throughput), then one softml
	// and one multislope3 decide per owned hot area, so the lazy
	// per-engine cache fill ends too. Touch batches are 256 items, small
	// enough for the trace and audit queues to absorb without drops.
	var items [][]byte
	for i := conn; i < len(areas); i += conns {
		items = append(items, fmt.Appendf(nil, `{"vehicle_id":"fill-%d","area":%q}`, conn, areas[i].ID))
	}
	g.addFill(items, touchBatch)
	items = nil
	for _, id := range g.mine {
		items = append(items,
			fmt.Appendf(nil, `{"vehicle_id":"fill-%d","area":%q,"policy":"softml","prediction":{"predicted_stop_s":20}}`, conn, id),
			fmt.Appendf(nil, `{"vehicle_id":"fill-%d","area":%q,"policy":"multislope3"}`, conn, id))
	}
	g.addFill(items, batchItems)
	return g
}

// touchBatch is the item count of the warm-up batches that touch every
// area once.
const touchBatch = 256

// addFill appends decide batches of up to n items to the warm-up fill.
func (g *fleetGen) addFill(items [][]byte, n int) {
	for len(items) > 0 {
		m := min(n, len(items))
		g.fill = append(g.fill, fleetOp{kind: opFill, body: batchBody(uint64(g.conn+1), items[:m]), decisions: m, orphan: -1})
		items = items[m:]
	}
}

// batchBody renders a decide batch.
func batchBody(seed uint64, items [][]byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"seed":%d,"requests":[`, seed)
	b.Write(bytes.Join(items, []byte(",")))
	b.WriteString("]}")
	return b.Bytes()
}

// next returns the connection's next operation.
func (g *fleetGen) next() fleetOp {
	k := g.k
	g.k++
	if len(g.fill) > 0 {
		op := g.fill[0]
		g.fill = g.fill[1:]
		op.k = k
		return op
	}
	switch u := g.rng.Float64(); {
	case u < 0.35:
		return g.decideOp(k)
	case u < 0.75:
		return g.observeOp(k)
	default:
		return g.settleOp(k)
	}
}

func (g *fleetGen) vehicle() int { return g.rng.IntN(fleetVehicles) }

// decideOp mixes default-engine decides over all 100k areas (10% on
// hot areas), 5% custom-B decides (cache misses), and 2% each of
// softml with a prediction and multislope3, on hot areas only.
func (g *fleetGen) decideOp(k int) fleetOp {
	op := fleetOp{kind: opDecide, k: k, decisions: batchItems, orphan: -1}
	items := make([][]byte, batchItems)
	for i := range items {
		v := g.vehicle()
		u := g.rng.Float64()
		switch {
		case u < 0.02:
			items[i] = fmt.Appendf(nil, `{"vehicle_id":"veh-%04d","area":%q,"policy":"softml","prediction":{"predicted_stop_s":%d}}`,
				v, g.hot[g.rng.IntN(len(g.hot))], 1+g.rng.IntN(120))
		case u < 0.04:
			items[i] = fmt.Appendf(nil, `{"vehicle_id":"veh-%04d","area":%q,"policy":"multislope3"}`,
				v, g.hot[g.rng.IntN(len(g.hot))])
		case u < 0.09:
			// Every area's B is 28 or 47, so 50..89 always misses.
			op.customB++
			items[i] = fmt.Appendf(nil, `{"vehicle_id":"veh-%04d","area":%q,"b":%d}`,
				v, g.areas[g.rng.IntN(len(g.areas))].ID, 50+g.rng.IntN(40))
		case u < 0.18:
			items[i] = fmt.Appendf(nil, `{"vehicle_id":"veh-%04d","area":%q}`, v, g.hot[g.rng.IntN(len(g.hot))])
		default:
			items[i] = fmt.Appendf(nil, `{"vehicle_id":"veh-%04d","area":%q}`, v, g.areas[g.rng.IntN(len(g.areas))].ID)
		}
	}
	op.body = batchBody(1+g.rng.Uint64N(1<<52), items)
	return op
}

// stop draws the next stop length of an area: short stops around 10 s
// and long ones past 40 s, with a long share of 15% or 55% that flips
// every regimeLen observations of the area. Only counted observations
// advance the area's regime. Values have one decimal so
// they survive the JSON round trip exactly.
func (g *fleetGen) stop(area string, count bool) float64 {
	n := g.seen[area]
	long := 0.15
	if ((n+g.offset[area])/regimeLen)%2 == 1 {
		long = 0.55
	}
	var y float64
	if g.rng.Float64() < long {
		y = 40 + g.rng.ExpFloat64()*90
	} else {
		y = 1 + g.rng.ExpFloat64()*10
	}
	y = math.Round(y*10) / 10
	if count {
		g.seen[area] = n + 1
		g.history[area] = append(g.history[area], y)
	}
	return y
}

// observeOp streams 16 observations into this connection's hot areas.
func (g *fleetGen) observeOp(k int) fleetOp {
	op := fleetOp{kind: opObserve, k: k, orphan: -1}
	var b bytes.Buffer
	b.WriteString(`{"observations":[`)
	for i := 0; i < batchItems; i++ {
		a := g.mine[g.rng.IntN(len(g.mine))]
		y := g.stop(a, true)
		op.areas = append(op.areas, a)
		op.stops = append(op.stops, y)
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"area":%q,"stop_sec":%s,"vehicle_id":"veh-%04d"}`, a, strconv.FormatFloat(y, 'g', -1, 64), g.vehicle())
	}
	b.WriteString("]}")
	op.body = b.Bytes()
	return op
}

// settleOp issues 16 ledger-opted decides on this connection's hot
// areas; settleBody later settles them. One pair in eight plants an
// orphan: a decision id the ledger never issued.
func (g *fleetGen) settleOp(k int) fleetOp {
	op := fleetOp{kind: opSettle, k: k, decisions: batchItems, orphan: -1}
	if g.rng.IntN(8) == 0 {
		op.orphan = g.rng.IntN(batchItems)
	}
	items := make([][]byte, batchItems)
	for i := range items {
		a := g.mine[g.rng.IntN(len(g.mine))]
		items[i] = fmt.Appendf(nil, `{"vehicle_id":"veh-%04d","area":%q,"ledger":true}`, g.vehicle(), a)
		op.areas = append(op.areas, a)
		op.stops = append(op.stops, g.stop(a, i != op.orphan))
	}
	op.body = batchBody(1+g.rng.Uint64N(1<<52), items)
	return op
}

// settleBody renders the observe batch that settles a settle op's
// decisions, given the decision ids of the decide reply.
func settleBody(op fleetOp, conn int, ids []string) []byte {
	var b bytes.Buffer
	b.WriteString(`{"observations":[`)
	for i, a := range op.areas {
		id := ids[i]
		if i == op.orphan {
			id = fmt.Sprintf("orphan-%d-%d", conn, op.k)
		}
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"area":%q,"stop_sec":%s,"decision_id":%q}`, a, strconv.FormatFloat(op.stops[i], 'g', -1, 64), id)
	}
	b.WriteString("]}")
	return b.Bytes()
}
