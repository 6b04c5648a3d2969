package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// decodeJSON is the request decoder the scanner replaced, kept as the
// reference the differential tests hold it to: encoding/json over the
// body capped at 1 MiB, unknown fields and trailing data rejected.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errTrailingBody
	}
	return nil
}

// errText renders an error for comparison ("" for nil).
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkDecode decodes body as a T through decodeBody and through the
// reference and fails unless the values are reflect-equal and the error
// texts identical. It reports whether the scanner took the body.
func checkDecode[T hotRequest](t *testing.T, body []byte) bool {
	t.Helper()
	var got, want T
	fast, gotErr := decodeBody(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), maxRequestBody), int64(len(body)), &got)
	wantErr := decodeJSON(httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), &want)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%T on %.200q: error %q, encoding/json %q", got, body, errText(gotErr), errText(wantErr))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T on %.200q: decoded %+v, encoding/json %+v", got, body, got, want)
	}
	if fast && gotErr != nil {
		t.Fatalf("%T on %.200q: the scanner took a body that fails", got, body)
	}
	return fast
}

// checkAllTypes runs checkDecode for every request type the scanner
// covers and returns how many of them it took.
func checkAllTypes(t *testing.T, body []byte) int {
	t.Helper()
	n := 0
	for _, fast := range []bool{
		checkDecode[DecideRequest](t, body),
		checkDecode[BatchDecideRequest](t, body),
		checkDecode[ObserveRequest](t, body),
		checkDecode[BatchObserveRequest](t, body),
	} {
		if fast {
			n++
		}
	}
	return n
}

// oversized returns a body of more than 1 MiB: prefix, enough of pad to
// pass the cap, then suffix.
func oversized(prefix string, pad byte, suffix string) []byte {
	b := []byte(prefix)
	b = append(b, bytes.Repeat([]byte{pad}, maxRequestBody+16)...)
	return append(b, suffix...)
}

// decodeSeeds are the fuzz seeds: the golden wire requests, every body
// shape the benchmark sends, and the encoding/json behaviours the
// scanner must leave to it.
func decodeSeeds() [][]byte {
	var seeds [][]byte
	for _, c := range goldenRequests() {
		seeds = append(seeds, []byte(c.Request))
	}
	seeds = append(seeds, benchmarkBodies()...)
	for _, s := range []string{
		// Behaviours of encoding/json the scanner hands back to it.
		`{"Vehicle_ID":"v","area":"chicago"}`,                   // case-variant key: accepted
		`{"vehicle_id":"a","vehicle_id":"b","area":"chicago"}`,  // repeated key: the last wins
		`{"vehicle_id":"v","area":"chicago","prediction":null}`, // null: ignored
		`{"vehicle_id":"v","area":null,"seed":null}`,            // null on scalars
		`{"vehicle_id":"vé\n","area":"chi\"cago"}`,              // escapes
		`{"vehicle_id":"v","area":"chicago","seed":1.0}`,        // uint with a fraction
		`{"vehicle_id":"v","area":"chicago","seed":-1}`,         // negative uint
		`{"vehicle_id":"v","area":"chicago","seed":18446744073709551616}`,
		`{"vehicle_id":"v","area":"chicago"}]`,                        // trailing ]: accepted
		`{"vehicle_id":"v","area":"chicago"}}`,                        // trailing }: accepted
		`{"vehicle_id":"v","area":"chicago"}{`,                        // trailing {: rejected
		`{"vehicle_id":"v","area":"chicago"} {"x":1}`,                 // a second value
		`{"vehicle_id":"v","area":"chicago","b":1e400}`,               // out of float64 range
		`{"vehicle_id":"v","area":"chicago","b":-0}`,                  // negative zero
		`{"vehicle_id":"v","area":"chicago","b":01}`,                  // leading zero
		`{"vehicle_id":"v","area":"chicago","b":1.}`,                  // bare point
		`{"vehicle_id":"v","area":"chicago","b":"28"}`,                // string for a number
		`{"vehicle_id":"v","area":"chicago","ledger":"true"}`,         // string for a bool
		`{"vehicle_id":"v","area":"chicago","params":{"lambda":0.5}}`, // params: encoding/json's
		`{"vehicle_id":"v","area":"chicago","bogus":1}`,               // unknown field
		`{"vehicle_id":"v","area":"chicago",}`,                        // trailing comma
		`{"vehicle_id":"v" "area":"chicago"}`,                         // missing comma
		`{"vehicle_id":"v\x01"}`,                                      // control byte
		"{\"vehicle_id\":\"\xff\xfe\",\"area\":\"chicago\"}",          // invalid UTF-8
		`{"vehicle_id":"vé","area":"chicago"}`,                        // valid UTF-8
		`{"area":"chicago","stop_sec":12.5,"predicted_stop_s":1e-7,"decision_id":"d1"}`,
		`{"observations":[{"area":"chicago","stop_sec":3},null]}`, // null item
		`{"requests":null}`,
		`{"requests":[]}`,
		`{"observations":[]}`,
		`{"seed":5,"requests":[{}]}`,
		`{"vehicle_id":"v","area":"chicago","prediction":{}}`,
		`{"vehicle_id":"v","area":"chicago","prediction":{"predicted_stop_s":20,"confidence":0.5,"m1":10,"m2":200}}`,
		`{"vehicle_id":"v","area":"chicago","prediction":{"predicted_stop_s":20,"predicted_stop_s":30}}`,
		`{"vehicle_id":"v","area":"chicago","ledger":truex}`,
		` 	{"vehicle_id":"v","area":"chicago"}` + "\r\n",
		`null`,
		`[]`,
		`"x"`,
		`{`,
		``,
		`   `,
	} {
		seeds = append(seeds, []byte(s))
	}
	return append(seeds,
		oversized(`{"vehicle_id":"v","area":"chicago"}`, ' ', ``),
		oversized(`{"vehicle_id":"v","area":"chicago"}`, ' ', `{`),
		oversized(`{"vehicle_id":"`, 'v', `","area":"chicago"}`),
		oversized(`{"requests":[`, ' ', `]}`),
	)
}

// benchmarkBodies returns every body shape the benchmark (perfbench)
// sends to the decide and observe routes: hot_decide's decides and its
// five probe variants, and fleet_100k's fill, decide, observe and
// settle batches.
func benchmarkBodies() [][]byte {
	var out [][]byte
	hot := `{"vehicle_id":"veh-0042","area":"chicago","seed":4503599627370495`
	for _, suffix := range []string{
		``,
		`,"policy":"multislope3"`,
		`,"b":100`,
		`,"b":47,"policy":"multislope3"`,
		`,"b":100,"policy":"softml","prediction":{"predicted_stop_s":20}`,
	} {
		out = append(out, []byte(hot+suffix+"}"))
	}
	batch := func(items ...string) []byte {
		return []byte(`{"seed":1234567,"requests":[` + strings.Join(items, ",") + `]}`)
	}
	out = append(out,
		// fill: one default decide per area, then softml and
		// multislope3 on the hot areas.
		batch(`{"vehicle_id":"fill-0","area":"area-000000"}`, `{"vehicle_id":"fill-0","area":"area-000002"}`),
		batch(`{"vehicle_id":"fill-1","area":"chicago","policy":"softml","prediction":{"predicted_stop_s":20}}`,
			`{"vehicle_id":"fill-1","area":"chicago","policy":"multislope3"}`),
		// decide: softml with a forecast, multislope3, custom B, hot
		// and cold default decides.
		batch(`{"vehicle_id":"veh-0001","area":"chicago","policy":"softml","prediction":{"predicted_stop_s":87}}`,
			`{"vehicle_id":"veh-0002","area":"atlanta","policy":"multislope3"}`,
			`{"vehicle_id":"veh-0003","area":"area-004711","b":63}`,
			`{"vehicle_id":"veh-0004","area":"chicago"}`,
			`{"vehicle_id":"veh-0005","area":"area-099999"}`),
		// settle: ledger-opted decides, then the observes that settle
		// them (one planting an orphan id).
		batch(`{"vehicle_id":"veh-0006","area":"chicago","ledger":true}`, `{"vehicle_id":"veh-0007","area":"atlanta","ledger":true}`),
		[]byte(`{"observations":[{"area":"chicago","stop_sec":12.3,"decision_id":"1a2b3c4d-d000001"},{"area":"atlanta","stop_sec":131.9,"decision_id":"orphan-1-17"}]}`),
		// observe: stops on the hot areas.
		[]byte(`{"observations":[{"area":"chicago","stop_sec":3.1,"vehicle_id":"veh-0008"},{"area":"atlanta","stop_sec":47,"vehicle_id":"veh-0009"}]}`),
	)
	return out
}

// FuzzDecodeRequest feeds arbitrary bodies to the scanner and to
// encoding/json for all four request types: the values must be
// reflect-equal and the error texts identical.
func FuzzDecodeRequest(f *testing.F) {
	for _, s := range decodeSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAllTypes(t, body)
	})
}

// TestDecodeSeedsMatchEncodingJSON pins what the seeds show: the
// scanner takes the benchmark's bodies and leaves each listed
// encoding/json behaviour to encoding/json.
func TestDecodeSeedsMatchEncodingJSON(t *testing.T) {
	for _, b := range benchmarkBodies() {
		if checkAllTypes(t, b) != 1 {
			t.Errorf("the scanner did not take %s as exactly one request type", b)
		}
	}
	for _, s := range []string{
		`{"Vehicle_ID":"v","area":"chicago"}`,
		`{"vehicle_id":"a","vehicle_id":"b","area":"chicago"}`,
		`{"vehicle_id":"v","area":"chicago","prediction":null}`,
		`{"vehicle_id":"vé","area":"chicago"}`,
		`{"vehicle_id":"v","area":"chicago","seed":1.0}`,
		`{"vehicle_id":"v","area":"chicago"}]`,
		`{"vehicle_id":"v","area":"chicago"}{`,
		`{"vehicle_id":"v","area":"chicago","b":1e400}`,
		``,
	} {
		if n := checkAllTypes(t, []byte(s)); n != 0 {
			t.Errorf("the scanner took %s, which it must leave to encoding/json", s)
		}
	}
	var req DecideRequest
	if err := decodeJSON(httptest.NewRequest(http.MethodPost, "/", strings.NewReader(`{"Vehicle_ID":"v","vehicle_id":"w"}`)), &req); err != nil || req.VehicleID != "w" {
		t.Errorf("encoding/json: case-variant then exact key gave %q, %v", req.VehicleID, err)
	}
}

// TestDecodeOversizedBodies: past 1 MiB the reader's error reaches
// encoding/json exactly as before, including the bodies it accepts.
func TestDecodeOversizedBodies(t *testing.T) {
	cases := []struct {
		body []byte
		want string
	}{
		{oversized(`{"vehicle_id":"v","area":"chicago"}`, ' ', ``), ""},
		{oversized(`{"vehicle_id":"v","area":"chicago"}`, ' ', `{`), ""},
		{oversized(`{"vehicle_id":"`, 'v', `"}`), "http: request body too large"},
	}
	for i, c := range cases {
		var got DecideRequest
		fast, err := decodeBody(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(c.body)), maxRequestBody), int64(len(c.body)), &got)
		if fast || errText(err) != c.want {
			t.Errorf("case %d: fast %v, error %q, want the fallback with %q", i, fast, errText(err), c.want)
		}
		checkDecode[DecideRequest](t, c.body)
	}
}

// TestDecodeFastPathCarriesBenchmarkTraffic: every body shape the
// benchmark sends reaches the handlers through the scanner, so
// http_decode_fallback_total stays 0; a case-variant key then counts one
// fallback on its route.
func TestDecodeFastPathCarriesBenchmarkTraffic(t *testing.T) {
	s, err := New(Config{Areas: testAreas()})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	post := func(path string, body []byte) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rr.Code >= 500 || rr.Body.Len() == 0 {
			t.Fatalf("%s %s: status %d, body %q", path, body, rr.Code, rr.Body)
		}
	}
	for _, b := range benchmarkBodies() {
		switch {
		case bytes.HasPrefix(b, []byte(`{"observations"`)):
			post("/v1/observe/batch", b)
		case bytes.HasPrefix(b, []byte(`{"seed"`)):
			post("/v1/decide/batch", b)
		default:
			post("/v1/decide", b)
		}
	}
	post("/v1/observe", []byte(`{"area":"chicago","stop_sec":9.5,"vehicle_id":"veh-0001","predicted_stop_s":12}`))
	reg := s.Recorder().Registry()
	if n := reg.SumCounterValues("http_decode_fallback_total"); n != 0 {
		t.Fatalf("http_decode_fallback_total = %d after the benchmark's bodies, want 0", n)
	}
	post("/v1/decide", []byte(`{"Vehicle_ID":"v","area":"chicago"}`))
	if n := reg.Counter(`http_decode_fallback_total{route="decide"}`).Value(); n != 1 {
		t.Fatalf(`http_decode_fallback_total{route="decide"} = %d after one case-variant key, want 1`, n)
	}
}

// TestDecodeAllocations pins the scanner's allocations per body: the
// copied-out strings, one items slice per batch, and nothing else (the
// buffer is pooled).
func TestDecodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts (sync.Pool drops items)")
	}
	bodies := decodeBenchBodies()
	for _, c := range []struct {
		name string
		want float64
		run  func(rd io.Reader) (bool, error)
	}{
		{"decide", 2, func(rd io.Reader) (bool, error) { var v DecideRequest; return decodeBody(rd, 0, &v) }},
		{"decide_batch16", 33, func(rd io.Reader) (bool, error) { var v BatchDecideRequest; return decodeBody(rd, 0, &v) }},
		{"observe_batch16", 33, func(rd io.Reader) (bool, error) { var v BatchObserveRequest; return decodeBody(rd, 0, &v) }},
	} {
		rd := bytes.NewReader(bodies[c.name])
		got := testing.AllocsPerRun(200, func() {
			rd.Reset(bodies[c.name])
			if fast, err := c.run(rd); !fast || err != nil {
				t.Fatalf("%s: fast %v, err %v", c.name, fast, err)
			}
		})
		if got != c.want {
			t.Errorf("%s: %v allocations per decode, want %v", c.name, got, c.want)
		}
	}
}

// TestDecodeConcurrent decodes bodies of several sizes from several
// goroutines, so the pooled buffers pass between them (make race-stress
// runs it ten times under -race). Bodies past 64 KiB leave the pool.
func TestDecodeConcurrent(t *testing.T) {
	var bodies [][]byte
	for _, n := range []int{1, 16, 300, 2000} {
		items := make([]string, n)
		for i := range items {
			items[i] = fmt.Sprintf(`{"area":"area-%06d","stop_sec":%d.5,"vehicle_id":"veh-%04d"}`, i, i, n)
		}
		bodies = append(bodies, []byte(`{"observations":[`+strings.Join(items, ",")+`]}`))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				b := bodies[(g+i)%len(bodies)]
				var v BatchObserveRequest
				fast, err := decodeBody(bytes.NewReader(b), int64(len(b)), &v)
				if !fast || err != nil {
					t.Errorf("fast %v, err %v", fast, err)
					return
				}
				last := v.Observations[len(v.Observations)-1]
				n := len(v.Observations)
				if last.Area != fmt.Sprintf("area-%06d", n-1) || last.StopSec != float64(n-1)+0.5 || last.VehicleID != fmt.Sprintf("veh-%04d", n) {
					t.Errorf("item %d of %d decoded as %+v", n-1, n, last)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// decodeBenchBodies are the bodies of BenchmarkDecode: one hot_decide
// decide and 16-item decide and observe batches of fleet_100k's shape.
func decodeBenchBodies() map[string][]byte {
	decides := make([]string, 16)
	observes := make([]string, 16)
	for i := range decides {
		decides[i] = fmt.Sprintf(`{"vehicle_id":"veh-%04d","area":"area-%06d"}`, 100+i, 4000*i)
		observes[i] = fmt.Sprintf(`{"area":"area-%06d","stop_sec":%s,"vehicle_id":"veh-%04d"}`, 7*i, strconv.FormatFloat(1.5+float64(i)*3.1, 'g', -1, 64), 200+i)
	}
	return map[string][]byte{
		"decide":          []byte(`{"vehicle_id":"veh-0042","area":"chicago","seed":4503599627370495}`),
		"decide_batch16":  []byte(`{"seed":2251799813685248,"requests":[` + strings.Join(decides, ",") + `]}`),
		"observe_batch16": []byte(`{"observations":[` + strings.Join(observes, ",") + `]}`),
	}
}

// rewindBody is a request body that BenchmarkDecode rewinds between
// iterations, so the benchmark measures decoding and not request
// construction.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// BenchmarkDecode compares the scanner (through decodeRequest, as the
// handlers call it) with the encoding/json reference on the benchmark's
// body shapes, over one request whose body is rewound each iteration.
func BenchmarkDecode(b *testing.B) {
	s, err := New(Config{Areas: testAreas()})
	if err != nil {
		b.Fatal(err)
	}
	bodies := decodeBenchBodies()
	for _, name := range []string{"decide", "decide_batch16", "observe_batch16"} {
		body := bodies[name]
		for _, impl := range []string{"scanner", "encoding_json"} {
			b.Run(name+"/"+impl, func(b *testing.B) {
				rb := &rewindBody{}
				r := httptest.NewRequest(http.MethodPost, "/", nil)
				r.Body, r.ContentLength = rb, int64(len(body))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rb.Reset(body)
					var err error
					switch {
					case name == "decide" && impl == "scanner":
						var v DecideRequest
						err = decodeRequest(s, name, r, &v)
					case name == "decide":
						var v DecideRequest
						err = decodeJSON(r, &v)
					case name == "decide_batch16" && impl == "scanner":
						var v BatchDecideRequest
						err = decodeRequest(s, name, r, &v)
					case name == "decide_batch16":
						var v BatchDecideRequest
						err = decodeJSON(r, &v)
					case impl == "scanner":
						var v BatchObserveRequest
						err = decodeRequest(s, name, r, &v)
					default:
						var v BatchObserveRequest
						err = decodeJSON(r, &v)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	if n := s.Recorder().Registry().SumCounterValues("http_decode_fallback_total"); n != 0 {
		b.Fatalf("%d bodies fell back to encoding/json", n)
	}
}
