package main

// The serving workloads: idled's server runs in a child process with
// one P; the benchmark drives it over loopback from `conns` keep-alive
// connections in a closed loop, the two processes pinned to CPUs of
// their own, reads the child's CPU and peak RSS from /proc, scrapes
// /metrics after the timed phase, drains the child and checks its
// outputs.

import (
	"cmp"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"idlereduce/internal/obs"
)

// The CPUs the load generator and the server child are pinned to on a
// machine with at least two.
const (
	generatorCPU = 0
	serverCPU    = 1
)

// window divides the run into slots: slot 0 is warm-up, and the timed
// phase is cut into windows, slot i covering [bounds[i-1], bounds[i]).
// In a traced run the windows after split record a span per request:
// the untraced and traced windows give the tracing overhead.
type window struct {
	bounds []time.Time
	split  int
}

// windowLen is the length of a window: short, so that a burst of
// steal spoils few windows and the rest can be kept, yet 25 of /proc's
// 10-ms clock ticks per CPU.
const windowLen = 250 * time.Millisecond

// newWindow lays out the warm-up and timed windows from now: the timed
// phase, or each half of it in a traced run, is cut into windows of
// about windowLen.
func newWindow(now time.Time, warm time.Duration, seconds int, traced bool) window {
	phases := 1
	if traced {
		phases = 2
	}
	phase := time.Duration(seconds) * time.Second / time.Duration(phases)
	n := max(1, int(phase/windowLen))
	step := phase / time.Duration(n)
	w := window{split: n}
	for i := 0; i <= n*phases; i++ {
		w.bounds = append(w.bounds, now.Add(warm+time.Duration(i)*step))
	}
	return w
}

// slot classifies a send time: 0 warm-up, 1..windows timed, -1 past
// the end.
func (w window) slot(t time.Time) int {
	i := sort.Search(len(w.bounds), func(j int) bool { return t.Before(w.bounds[j]) })
	if i == len(w.bounds) {
		return -1
	}
	return i
}

// phase maps a slot to 0 (warm-up), 1 (untraced) or 2 (traced).
func (w window) phase(slot int) int {
	switch {
	case slot == 0:
		return 0
	case slot <= w.split:
		return 1
	}
	return 2
}

// tally accumulates one worker's requests of one phase.
type tally struct {
	lat []int64 // ns per request, send to last reply byte
	// requests sent; ok of them returned 2xx with no unexpected item
	// error; slo of those within the latency limit.
	requests, ok, slo int64
	// items counts successful decisions plus observations.
	items int64
	// Failure classes: transport error, 429, other non-2xx, unexpected
	// per-item batch error, settle 404/409 beyond the planted orphans.
	transport, tooMany, non2xx, itemErr, settleErr int64
}

// record books one request. badItems is the number of unexpected item
// errors in a 2xx reply; okItems the decisions/observations it served.
func (t *tally) record(lat time.Duration, r reply, err error, badItems, okItems int, limit time.Duration) {
	t.requests++
	t.lat = append(t.lat, int64(lat))
	switch {
	case err != nil:
		t.transport++
	case r.status == http.StatusTooManyRequests:
		t.tooMany++
	case r.status < 200 || r.status > 299:
		t.non2xx++
	case badItems > 0:
	default:
		t.ok++
		if lat <= limit {
			t.slo++
		}
	}
	if err == nil && r.status >= 200 && r.status <= 299 {
		t.items += int64(okItems)
	}
}

func (t *tally) merge(o *tally) {
	t.lat = append(t.lat, o.lat...)
	t.requests += o.requests
	t.ok += o.ok
	t.slo += o.slo
	t.items += o.items
	t.transport += o.transport
	t.tooMany += o.tooMany
	t.non2xx += o.non2xx
	t.itemErr += o.itemErr
	t.settleErr += o.settleErr
}

func (t *tally) failed() int64 { return t.requests - t.ok }

// servingPlan describes one serving workload.
type servingPlan struct {
	spec   childSpec
	setups int           // child boots timed for setup_s; the last one serves
	warm   time.Duration // warm-up before the timed phase
	limit  time.Duration // slo_share latency limit
	// refGenUS is the generator's CPU per request, in µs, on the
	// reference machine: the time metrics are scaled to it.
	refGenUS float64
	// prewarm, when set, runs on every connection before the warm-up
	// clock starts (the lazy cache fill), booked as warm-up.
	prewarm func(conn int, k *loadConn, t *tally)
	// worker runs one connection's closed loop until the last window
	// ends, booking each request in the tally of the slot it was sent in.
	worker func(conn int, k *loadConn, w window, t []tally)
}

// servedRun is what a serving workload measured.
type servedRun struct {
	setups []float64
	w      window
	phases [3]tally        // merged over workers: warm-up, untraced, traced
	slots  []tally         // merged over workers, by slot
	cpu    []time.Duration // server CPU per slot
	gen    []time.Duration // generator (this process) CPU per slot
	steal  []float64       // machine-wide steal share per slot
	rssMB  float64
	scrape obs.Snapshot
	// refGenUS is the plan's reference generator CPU per request.
	refGenUS float64
}

// runServing boots the child plan.setups times (timing each boot),
// drives the last one through warm-up and the timed phase, scrapes
// /metrics, and drains it.
func runServing(e *env, plan servingPlan) (*servedRun, error) {
	run := &servedRun{refGenUS: plan.refGenUS}
	// The generator and the server each get a CPU of their own, as a
	// client and a server on two machines would.
	pin := runtime.NumCPU() > serverCPU
	if pin {
		if err := pinProcess(os.Getpid(), generatorCPU); err != nil {
			return nil, err
		}
	}
	var c *child
	for i := 0; i < plan.setups; i++ {
		spec := plan.spec
		if i < plan.setups-1 {
			// Boot-only children write their sinks aside.
			if spec.AuditLog != "" {
				spec.AuditLog += fmt.Sprintf(".boot%d", i)
			}
			if spec.TraceLog != "" {
				spec.TraceLog += fmt.Sprintf(".boot%d", i)
			}
		}
		ch, err := startChild(e.exe, e.dir, fmt.Sprintf("child%d", i), spec, pin)
		if err != nil {
			return nil, err
		}
		run.setups = append(run.setups, ch.setup.Seconds())
		if i < plan.setups-1 {
			if err := ch.stop(); err != nil {
				return nil, fmt.Errorf("boot-only child: %w", err)
			}
			os.Remove(spec.AuditLog)
			os.Remove(spec.TraceLog)
			continue
		}
		c = ch
	}
	pid := c.cmd.Process.Pid
	stopped := false
	defer func() {
		if !stopped {
			c.kill()
		}
	}()

	ks := make([]*loadConn, conns)
	for i := range ks {
		k, err := dialConn(c.addr)
		if err != nil {
			return nil, err
		}
		defer k.close()
		ks[i] = k
	}
	// The fill runs before the warm-up clock starts and is booked as
	// warm-up.
	var wg sync.WaitGroup
	fill := make([]tally, conns)
	if plan.prewarm != nil {
		for i := range ks {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				plan.prewarm(i, ks[i], &fill[i])
			}(i)
		}
		wg.Wait()
	}
	w := newWindow(time.Now(), plan.warm, e.seconds, e.traced)
	per := make([][]tally, conns)
	for i := range per {
		per[i] = make([]tally, len(w.bounds))
		per[i][0] = fill[i]
	}
	for i := range ks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plan.worker(i, ks[i], w, per[i])
		}(i)
	}
	// Server and generator CPU are sampled at each window bound; the slot classifier uses the
	// same instants, so requests and CPU cover the same interval.
	cpus := make([]time.Duration, len(w.bounds))
	gens := make([]time.Duration, len(w.bounds))
	steals := make([][2]uint64, len(w.bounds))
	var cpuErr error
	for i, t := range w.bounds {
		time.Sleep(time.Until(t))
		cpu, err := procCPU(pid)
		if err == nil {
			gens[i], err = procCPU(os.Getpid())
		}
		if err == nil {
			steals[i][0], steals[i][1], err = machineSteal()
		}
		if err != nil && cpuErr == nil {
			cpuErr = err
		}
		cpus[i] = cpu
	}
	rss, rssErr := procPeakRSSMB(pid)
	wg.Wait()
	if cpuErr != nil {
		return nil, cpuErr
	}
	if rssErr != nil {
		return nil, rssErr
	}
	run.w, run.rssMB = w, rss
	run.slots = make([]tally, len(w.bounds))
	run.cpu = make([]time.Duration, len(w.bounds))
	run.gen = make([]time.Duration, len(w.bounds))
	run.steal = make([]float64, len(w.bounds))
	for i := 1; i < len(w.bounds); i++ {
		run.cpu[i] = cpus[i] - cpus[i-1]
		run.gen[i] = gens[i] - gens[i-1]
		run.steal[i] = float64(steals[i][0]-steals[i-1][0]) / float64(max(steals[i][1]-steals[i-1][1], 1))
	}
	for i := range per {
		for sl := range per[i] {
			run.slots[sl].merge(&per[i][sl])
			run.phases[w.phase(sl)].merge(&per[i][sl])
		}
	}

	t0 := time.Now()
	r, err := get(c.addr, "/metrics?format=json")
	if err != nil || r.status != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d: %v", r.status, err)
	}
	e.spans.add("client.metrics", 0, r.reqID, t0, time.Now(), 1, 0, 0)
	if err := json.Unmarshal(r.body, &run.scrape); err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	for _, k := range ks {
		k.close()
	}
	stopped = true
	if err := c.stop(); err != nil {
		return nil, fmt.Errorf("drain child: %w", err)
	}
	return run, nil
}

// stealLimit is the machine-wide steal share up to which a window
// counts as quiet: steal is time the hypervisor gave this machine's
// CPUs to another guest, which neither process can see or cause.
const stealLimit = 0.01

// quietWindows returns the slots of phase p the metrics are taken
// over: those whose steal share is at most stealLimit or, when fewer
// than half of the phase's windows are that quiet, the half with the
// least steal. The choice depends only on steal, never on the measured
// values.
func (run *servedRun) quietWindows(p int) []int {
	var slots []int
	for sl := 1; sl < len(run.slots); sl++ {
		if run.w.phase(sl) == p {
			slots = append(slots, sl)
		}
	}
	return lowSteal(slots, run.steal)
}

// lowSteal picks from slots those with steal[sl] <= stealLimit or,
// when they are fewer than half, the half (rounded up) with the least
// steal. The result is in slot order.
func lowSteal(slots []int, steal []float64) []int {
	var quiet []int
	for _, sl := range slots {
		if steal[sl] <= stealLimit {
			quiet = append(quiet, sl)
		}
	}
	if 2*len(quiet) >= len(slots) {
		return quiet
	}
	least := slices.Clone(slots)
	slices.SortStableFunc(least, func(a, b int) int { return cmp.Compare(steal[a], steal[b]) })
	least = least[:(len(slots)+1)/2]
	slices.Sort(least)
	return least
}

// pooled merges the tallies of slots and sums their server and
// generator CPU.
func (run *servedRun) pooled(slots []int) (all tally, cpu, gen time.Duration) {
	for _, sl := range slots {
		all.merge(&run.slots[sl])
		cpu += run.cpu[sl]
		gen += run.gen[sl]
	}
	return all, cpu, gen
}

// speed is the factor that scales the time metrics of slots to the
// reference machine speed: the reference generator CPU per request
// over the generator's own CPU per request in those windows.
func (run *servedRun) speed(slots []int) float64 {
	all, _, gen := run.pooled(slots)
	return run.refGenUS / (float64(gen.Nanoseconds()) / 1e3 / float64(max(all.requests, 1)))
}

// e2e renders the end-to-end metrics of one timed phase. The latency
// quantiles are taken over every request of the phase's quiet windows
// together, and the CPU per operation is their server CPU over their
// operations, so host contention that spoils some windows does not
// move them while garbage-collection cycles, which come every few
// windows in fleet_100k, are averaged in. The three are then scaled
// to the reference machine speed (see speed and README.md): the host's
// speed changes the generator's CPU per request as much as the
// server's, and the generator's work per request is fixed by the
// benchmark and the wire format. The factor always comes from the
// untraced phase: in a traced run's second phase the generator also
// records spans. The SLO share is the share over the whole phase;
// setup_s is not scaled.
func (run *servedRun) e2e(p int) []metric {
	quiet, cpu, _ := run.pooled(run.quietWindows(p))
	k := run.speed(run.quietWindows(1))
	var slo, requests int64
	for sl := 1; sl < len(run.slots); sl++ {
		if run.w.phase(sl) == p {
			slo += run.slots[sl].slo
			requests += run.slots[sl].requests
		}
	}
	return []metric{
		{"setup_s", "s", median(run.setups)},
		{"p50_ms", "ms", k * float64(quantileNS(quiet.lat, 0.50)) / 1e6},
		{"p99_ms", "ms", k * float64(quantileNS(quiet.lat, 0.99)) / 1e6},
		{"cpu_us_per_op", "us", k * float64(cpu.Nanoseconds()) / 1e3 / float64(max(quiet.items, 1))},
		{"slo_share", "ratio", float64(slo) / float64(max(requests, 1))},
		{"peak_rss_mb", "MB", run.rssMB},
	}
}

// windowLines renders the per-window values, with the machine-wide
// steal share observed in each window and the generator's own CPU per
// request; "*" marks the windows the metrics are taken over.
func (run *servedRun) windowLines() []string {
	used := map[int]bool{}
	for p := 1; p <= 2; p++ {
		for _, sl := range run.quietWindows(p) {
			used[sl] = true
		}
	}
	line := func(label string, slots []int) string {
		t, cpu, gen := run.pooled(slots)
		q := func(x float64) float64 { return float64(quantileNS(t.lat, x)) / 1e6 }
		return fmt.Sprintf("%s: %d requests, p50 %.4f ms, p99 %.4f ms, cpu %.2f us/op, generator %.2f us/request",
			label, t.requests, q(0.50), q(0.99),
			float64(cpu.Nanoseconds())/1e3/float64(max(t.items, 1)), float64(gen.Nanoseconds())/1e3/float64(max(t.requests, 1)))
	}
	var out []string
	for sl := 1; sl < len(run.slots); sl++ {
		mark := " "
		if used[sl] {
			mark = "*"
		}
		out = append(out, line(fmt.Sprintf("%swindow %d (phase %d, steal %.1f%%)", mark, sl, run.w.phase(sl), 100*run.steal[sl]), []int{sl}))
	}
	// The same figures over the untraced phase's quiet windows and over
	// all of its windows, unscaled, with the speed factor the metrics
	// are scaled by.
	var all []int
	for sl := 1; sl < len(run.slots); sl++ {
		if run.w.phase(sl) == 1 {
			all = append(all, sl)
		}
	}
	quiet := run.quietWindows(1)
	return append(out, line("quiet windows, unscaled", quiet), line("all windows, unscaled", all),
		fmt.Sprintf("speed factor %.4f: reference generator CPU %.0f us/request over the quiet windows' own", run.speed(quiet), run.refGenUS))
}

// handlerMS is the server's own mean http_request_ms over the /v1
// routes, from the scrape.
func handlerMS(s obs.Snapshot) float64 {
	var sum float64
	var n uint64
	for _, h := range s.Histograms {
		if !strings.HasPrefix(h.Name, "http_request_ms{") {
			continue
		}
		if route, _ := obs.LabelValue(h.Name, "route"); route == "healthz" || route == "metrics" {
			continue
		}
		sum += h.Sum
		n += h.Count
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// gauge returns a scraped gauge (0 when absent).
func gauge(s obs.Snapshot, name string) float64 {
	v, _ := s.GaugeValue(name)
	return v
}

// failureLines renders the failure accounting of a phase.
func failureLines(label string, t *tally) []string {
	return []string{fmt.Sprintf("%s: sent %d, succeeded %d, failed %d (transport %d, 429 %d, other non-2xx %d, item error %d, settle 404/409 beyond planted %d); items served %d; latency samples %d",
		label, t.requests, t.ok, t.failed(), t.transport, t.tooMany, t.non2xx, t.itemErr, t.settleErr, t.items, len(t.lat))}
}

// workPath returns a path in the run's work directory.
func (e *env) workPath(name string) string { return filepath.Join(e.dir, name) }
