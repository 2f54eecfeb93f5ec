package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// Same seed, same inputs; another seed, other inputs — for every
// workload's generated inputs.
func TestSeedDeterminism(t *testing.T) {
	digests := map[string]func(int64) (string, error){
		"sweep": func(s int64) (string, error) { return sweepDigest(s, 1) },
		"edit":  func(s int64) (string, error) { return editDigest(s, 24) },
		"serve": func(s int64) (string, error) { return serveDigest(s, 64) },
	}
	for name, digest := range digests {
		a1, err := digest(1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a2, err := digest(1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := digest(2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a1 != a2 {
			t.Errorf("%s: seed 1 gave two digests %s and %s", name, a1, a2)
		}
		if a1 == b {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", name, a1)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.2, 1}, {0.21, 2}, {0.5, 3}, {0.99, 5}, {1, 5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
	if xs[0] != 5 {
		t.Errorf("quantile sorted its input")
	}
}

// The tail percentile is the highest one with at least minTail samples
// beyond it, capped at p99: p99 itself from 1000 samples on.
func TestTailLevelLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 0.99}, {5000, 0.99}, {500, 0.98}, {100, 0.90}} {
		q, ok := tailLevel(c.n, 0.99)
		if !ok || math.Abs(q-c.want) > 1e-12 {
			t.Errorf("tailLevel(%d) = %v, %v; want %v", c.n, q, ok, c.want)
		}
	}
	for n := 2*minTail + 1; n <= 3000; n++ {
		q, ok := tailLevel(n, 0.99)
		if !ok {
			t.Fatalf("tailLevel(%d) not ok", n)
		}
		if b := beyond(n, q); b < minTail {
			t.Fatalf("n=%d: p%.4f leaves %d beyond, want >= %d", n, 100*q, b, minTail)
		}
		// No higher rank would still leave minTail beyond, unless capped.
		if q < 0.99 && beyond(n, q)-1 >= minTail {
			t.Fatalf("n=%d: p%.4f is not the highest level with %d beyond", n, 100*q, minTail)
		}
	}
	if _, ok := tailLevel(2*minTail, 0.99); ok {
		t.Errorf("tailLevel(%d) ok, want too few samples", 2*minTail)
	}
	d := summarize(make([]float64, 500))
	if d.tailFull || math.Abs(d.tailQ-0.98) > 1e-12 {
		t.Errorf("summarize(500 samples) tail p%v full=%v, want p98 not full", 100*d.tailQ, d.tailFull)
	}
}

// An open-loop request is timed from its due time: a generator stall
// shows up as lateness and in the latency of every request it held.
func TestFromDueChargesStalls(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	lat, late := fromDue(at(0), at(5), at(7))
	if lat != 7*time.Millisecond || late != 5*time.Millisecond {
		t.Errorf("fromDue = %v, %v; want 7ms, 5ms", lat, late)
	}
	// One connection, requests due every 10ms, the first takes 35ms:
	// the next three wait for it.
	var lats []time.Duration
	free := at(0)
	for i := 0; i < 5; i++ {
		due := at(10 * i)
		sent := due
		if free.After(sent) {
			sent = free
		}
		service := 2 * time.Millisecond
		if i == 0 {
			service = 35 * time.Millisecond
		}
		done := sent.Add(service)
		free = done
		l, _ := fromDue(due, sent, done)
		lats = append(lats, l)
	}
	want := []time.Duration{35, 27, 19, 11, 3}
	for i, l := range lats {
		if l != want[i]*time.Millisecond {
			t.Errorf("request %d latency %v, want %vms", i, l, want[i])
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := newTracer()
	base := tr.epoch
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	tr.record("parent", at(0), at(10), -1)
	tr.record("child", at(1), at(4), 0)
	tr.record("child", at(3), at(6), 0) // overlaps the first child
	tr.record("child", at(8), at(12), 0)
	got := map[string]layerTime{}
	for _, r := range tr.selfTimes() {
		got[r.layer] = r
	}
	// Children cover [1,6] and [8,10] of the parent: 7ms.
	if p := got["parent"]; p.total != 10*time.Millisecond || p.self != 3*time.Millisecond {
		t.Errorf("parent total %v self %v, want 10ms 3ms", p.total, p.self)
	}
	if c := got["child"]; c.spans != 3 || c.self != 10*time.Millisecond {
		t.Errorf("child spans %d self %v, want 3 and 10ms", c.spans, c.self)
	}
}

func TestStealShare(t *testing.T) {
	t0 := time.Unix(0, 0)
	m := &stealMeter{samples: []stealSample{
		{at: t0, busy: 0, stole: 0},
		{at: t0.Add(100 * time.Millisecond), busy: 20, stole: 0},
		{at: t0.Add(200 * time.Millisecond), busy: 35, stole: 5},
	}}
	if got := m.share(t0.Add(110*time.Millisecond), t0.Add(150*time.Millisecond)); got != 0.25 {
		t.Errorf("share in the second interval = %v, want 0.25", got)
	}
	if got := m.share(t0, t0.Add(200*time.Millisecond)); got != 5.0/40 {
		t.Errorf("share over both = %v, want %v", got, 5.0/40)
	}
	if got := m.adjust(t0.Add(120*time.Millisecond), t0.Add(160*time.Millisecond)); got != 30*time.Millisecond {
		t.Errorf("adjust = %v, want 30ms", got)
	}
	var none *stealMeter
	if got := none.adjust(t0, t0.Add(time.Second)); got != time.Second {
		t.Errorf("nil meter adjust = %v, want 1s", got)
	}
}

// benchmarkFile is the part of BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// BENCHMARK.json, layers.json and the program name the same metrics.
func TestMetricListsAgree(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if i < len(endToEnd) && m.Name != endToEnd[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %q, program %q", i, m.Name, endToEnd[i])
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayer))
	}
	data, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var layers map[string]struct {
		Layer string `json:"layer"`
		Moves string `json:"moves"`
	}
	if err := json.Unmarshal(data, &layers); err != nil {
		t.Fatal(err)
	}
	for i, m := range bf.PerLayer {
		if i < len(perLayer) && m.Name != perLayer[i] {
			t.Errorf("per-layer metric %d: BENCHMARK.json %q, program %q", i, m.Name, perLayer[i])
		}
		if m.Unit != unitOf(m.Name) {
			t.Errorf("per-layer metric %q: BENCHMARK.json unit %q, program %q", m.Name, m.Unit, unitOf(m.Name))
		}
		if l, ok := layers[m.Name]; !ok || l.Layer == "" || l.Moves == "" {
			t.Errorf("layers.json has no layer and target for %q", m.Name)
		}
	}
	if len(layers) != len(perLayer) {
		t.Errorf("layers.json maps %d metrics, want %d", len(layers), len(perLayer))
	}
}

// A short run of every workload, untraced and traced, checks its
// outputs and prints every metric its mode names.
func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmarkFile(t)
	units := map[string]string{}
	for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
		units[m.Name] = m.Unit
	}
	for _, w := range []string{"sweep", "edit", "serve"} {
		for _, trace := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			code := run([]string{"-workload", w, "-seed", "3", "-seconds", "1.2", "-trace", trace, "-outdir", t.TempDir()}, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s\n%s", w, trace, code, errOut.String(), out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result: %v", w, trace, err)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d metrics=%d (want %d)",
					w, trace, res.Correct, res.Attempted, res.Failed, len(res.Metrics), len(want))
			}
			for _, name := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != units[name] {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %q", w, trace, name, m, units[name])
				}
				if trace == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
				}
			}
		}
	}
}

// A host running at half speed (factor 2) halves the normalized times
// and doubles the rate; the raw values are kept beside them.
func TestNormalizeByReferenceFactor(t *testing.T) {
	rep := newReport()
	rep.set("setup_s", 2, "s", 1)
	rep.set("latency_p50_ms", 10, "ms", 1)
	rep.set("throughput", 100, "1/s", 1)
	normalize(rep, 2)
	if rep.metrics["setup_s"].value != 1 || rep.metrics["latency_p50_ms"].value != 5 || rep.metrics["throughput"].value != 200 {
		t.Errorf("normalized %+v", rep.metrics)
	}
	if rep.metrics["setup_s_raw"].value != 2 || rep.metrics["throughput_raw"].value != 100 {
		t.Errorf("raw values not kept: %+v", rep.metrics)
	}
}

// A run's tail is the median of its windows' p99s: a burst confined to
// one window does not move it.
func TestSummarizeRunWindowsTheTail(t *testing.T) {
	xs := make([]float64, 3*tailWindow)
	for i := range xs {
		xs[i] = float64(i % 100) // p99 of every window: 98
	}
	for i := tailWindow; i < tailWindow+50; i++ {
		xs[i] = 1000 // a burst inside the second window
	}
	d := summarizeRun(xs)
	if d.windows != 3 || d.tail != 98 {
		t.Errorf("summarizeRun tail %v over %d windows, want 98 over 3", d.tail, d.windows)
	}
	if whole := summarize(xs); whole.tail != 1000 {
		t.Errorf("whole-run p99 %v, want the burst 1000", whole.tail)
	}
}
