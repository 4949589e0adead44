package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fm"
	"repro/internal/serve"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {20, 15}, {30, 20}, {40, 20}, {50, 35}, {99, 50}, {100, 50},
	} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
	hundred := make([]float64, 1000)
	for i := range hundred {
		hundred[i] = float64(1000 - i)
	}
	// p99 of 1..1000 is 990: ten samples lie beyond it.
	if got := percentile(hundred, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestKeptWindows(t *testing.T) {
	froms := func(ws []window) []int {
		var out []int
		for _, w := range ws {
			out = append(out, w.from)
		}
		return out
	}
	for _, c := range []struct {
		stolen []float64
		want   []int
	}{
		// At least half the windows under stealMax: exactly those.
		{[]float64{0, 0.05, stealMax, 0.3}, []int{0, 2}},
		// Fewer: the half stolen from least, in run order.
		{[]float64{0.05, 0.03, 0.2, 0.04, 0.01}, []int{1, 3, 4}},
	} {
		p := &phase{}
		for i, s := range c.stolen {
			p.windows = append(p.windows, window{from: i, to: i + 1, stolen: s})
		}
		if got := froms(p.kept()); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("stolen %v: kept %v, want %v", c.stolen, got, c.want)
		}
	}
}

// sequence flattens every request body a run would send.
func sequence(in *inputs) []byte {
	var b bytes.Buffer
	for _, seq := range [][]*request{in.warm, in.burst, in.closed, in.open} {
		for _, r := range seq {
			b.WriteString(r.path)
			b.Write(r.body)
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			gen := func(seed int64) []byte {
				in, err := generate(w, seed, 2)
				if err != nil {
					t.Fatal(err)
				}
				return sequence(in)
			}
			a, b := gen(7), gen(7)
			if !bytes.Equal(a, b) {
				t.Fatal("seed 7 generated two different request sequences")
			}
			if bytes.Equal(a, gen(8)) {
				t.Fatal("seeds 7 and 8 generated the same request sequence")
			}
		})
	}
}

func TestOracleCatchesCorruptedReference(t *testing.T) {
	spec, _ := lookupWorkload("hot-eval")
	in, err := generate(spec, 3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	req := in.closed[0]
	r := &in.recs[req.rec]
	resp := serve.EvalResponse{GraphFP: fmt.Sprintf("%x", r.gfp), BatchSize: 1}
	for _, mi := range req.maps {
		sched, err := buildSchedule(r, in.maps[mi].spec, in.tgt)
		if err != nil {
			t.Fatal(err)
		}
		c, err := fm.Evaluate(r.g, sched, in.tgt, fm.EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		resp.Costs = append(resp.Costs, c)
	}
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	res := []result{{req: req, status: 200, body: body}}
	o := newOracle(in)
	ok, _, err := o.verdicts(res, 2)
	if err != nil || !ok[0] {
		t.Fatalf("a correct answer failed the oracle: ok=%v err=%v", ok, err)
	}
	ref := o.refs[req.maps[0]]
	ref.Cycles++
	o.refs[req.maps[0]] = ref
	if err := o.check(&res[0]); err == nil || !strings.Contains(err.Error(), "cost") {
		t.Fatalf("oracle accepted an answer that differs from a corrupted reference: %v", err)
	}
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, w := range workloads {
		for trace, want := range [][]string{endToEnd, perLayer} {
			t.Run(fmt.Sprintf("%s/trace%d", w.name, trace), func(t *testing.T) {
				dir := t.TempDir()
				var out, errOut bytes.Buffer
				args := []string{"--workload", w.name, "--seed", "1", "--seconds", "1.5", "--trace", fmt.Sprint(trace), "--workdir", dir}
				if code := run(args, &out, &errOut); code != 0 {
					t.Fatalf("exit %d\n%s\n%s", code, out.String(), errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 || len(rep.Metrics) != len(want) {
					t.Fatalf("report %+v", rep)
				}
				for _, name := range want {
					if _, ok := rep.Metrics[name]; !ok {
						t.Errorf("metric %s missing", name)
					}
				}
				if strings.Contains(out.String(), "prediction FAILS") {
					t.Errorf("a prediction failed:\n%s", out.String())
				}
				if trace == 1 {
					checkSpans(t, filepath.Join(dir, fmt.Sprintf("spans-%s-seed1.json", w.name)), w.cluster)
				}
			})
		}
	}
}

// checkSpans requires every traced eval's spans to share its id and nest
// generator > router > attempt > shard (generator > shard on one mapd).
func checkSpans(t *testing.T, path string, cluster bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	byID := make(map[uint64]span)
	for _, s := range spans {
		byID[s.ID] = s
	}
	order := []string{"generator", "shard"}
	if cluster {
		order = []string{"generator", "router", "attempt", "shard"}
	}
	chains := 0
	for _, s := range spans {
		if s.Name != "shard" || s.Path != pathEval {
			continue
		}
		var chain []string
		for cur, ok := s, true; ok; cur, ok = byID[cur.Parent] {
			if cur.Req != s.Req {
				t.Fatalf("span %d has request id %d, its child %d", cur.ID, cur.Req, s.Req)
			}
			// A hedge's losing shard may outlive its cancelled attempt,
			// so only the starts are ordered.
			if cur.Start > s.Start {
				t.Fatalf("span %s %d starts after its descendant", cur.Name, cur.ID)
			}
			chain = append([]string{cur.Name}, chain...)
			if cur.Name == "generator" {
				break
			}
		}
		if strings.Join(chain, ">") != strings.Join(order, ">") {
			t.Fatalf("span chain %v, want %v", chain, order)
		}
		chains++
	}
	if chains == 0 {
		t.Fatal("no eval span chains recorded")
	}
}
