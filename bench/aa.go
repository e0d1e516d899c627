package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// child runs this binary once more with the given flags and returns its
// report, copying its output to w when w is not nil.
func child(w io.Writer, stderr io.Writer, args ...string) (report, error) {
	self, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	var buf bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = &buf, stderr
	runErr := cmd.Run()
	if w != nil {
		w.Write(buf.Bytes()) //nolint:errcheck // progress output
	}
	if runErr != nil {
		return report{}, fmt.Errorf("%s: %w", strings.Join(args, " "), runErr)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return report{}, fmt.Errorf("%s: last line is not a report: %w", strings.Join(args, " "), err)
	}
	return rep, nil
}

func childArgs(name string, seed int64, seconds float64, trace string) []string {
	return []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace}
}

// runAll runs every workload once, each in its own process, and fails if
// any job of any workload failed.
func runAll(seed int64, seconds float64, trace string, stdout, stderr io.Writer) int {
	rc := 0
	for _, name := range workloadNames {
		if _, err := child(stdout, stderr, childArgs(name, seed, seconds, trace)...); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			rc = 1
		}
	}
	return rc
}

// benchmarkFile is the part of BENCHMARK.json the A/A check needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAA measures the same commit twice: two interleaved sets of n runs
// per workload, every run with its own seed. It prints, per metric, both
// medians, their relative difference, each set's spread (interquartile
// range over median) and the bound from BENCHMARK.json, and fails when a
// difference or a spread exceeds the bound.
func runAA(n int, only string, seed int64, seconds float64, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench: the A/A check runs from the repository root:", err)
		return 1
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintln(stderr, "bench: BENCHMARK.json:", err)
		return 1
	}
	names := workloadNames
	if only != "" {
		names = []string{only}
	}
	rc := 0
	fmt.Fprintf(stdout, "| workload | metric | median A | median B | diff | spread A | spread B | bound | |\n|---|---|---|---|---|---|---|---|---|\n")
	for _, name := range names {
		a, b := map[string][]float64{}, map[string][]float64{}
		for i := 0; i < n; i++ {
			for k, set := range []map[string][]float64{a, b} {
				rep, err := child(nil, stderr, childArgs(name, seed+int64(2*i+k), seconds, "0")...)
				if err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					return 1
				}
				for m, v := range rep.Metrics {
					set[m] = append(set[m], v.Value)
				}
			}
		}
		for _, m := range bf.EndToEnd {
			ma, mb := median(a[m.Name]), median(b[m.Name])
			diff := math.Abs(mb-ma) / ma
			sa, sb := spread(a[m.Name]), spread(b[m.Name])
			verdict := "ok"
			if diff > m.Bound || (m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound)) {
				verdict, rc = "FAIL", 1
			}
			fmt.Fprintf(stdout, "| %s | %s | %.4g | %.4g | %.1f%% | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				name, m.Name, ma, mb, 100*diff, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	return rc
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles of Python's statistics.quantiles(xs,
// n=4), which is what the driver computes.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / median(s)
}
