package main

import (
	"fmt"
	"os"
)

// runSuite runs every workload, untraced window first and the traced pass
// after it, `sets` times over. With more than one set it is the agreement
// check: each end-to-end metric's per-set values and relative spread are
// printed per workload, and any spread beyond the metric's bound in
// BENCHMARK.json fails the run.
func runSuite(o options, sets int, m *manifest) int {
	o.trace, o.split = true, false
	ok := true
	// values[workload][metric] holds one value per set.
	values := map[string]map[string][]float64{}
	for set := 0; set < sets; set++ {
		if sets > 1 {
			fmt.Printf("#### set %d of %d\n", set+1, sets)
		}
		for _, sp := range specs {
			r := runWorkload(sp, o)
			printResult(os.Stdout, r, m)
			if !r.correct() {
				ok = false
				continue
			}
			if values[sp.name] == nil {
				values[sp.name] = map[string][]float64{}
			}
			for _, d := range m.EndToEnd {
				values[sp.name][d.Name] = append(values[sp.name][d.Name], r.e2e[d.Name])
			}
		}
	}
	if sets > 1 {
		fmt.Println("#### agreement between sets: (max − min) ÷ median per end-to-end metric")
		for _, sp := range specs {
			for _, d := range m.EndToEnd {
				vs := values[sp.name][d.Name]
				if len(vs) < sets {
					continue // a failed set; already reported
				}
				spread := rangeSpread(vs)
				verdict := "ok"
				if spread > d.Bound {
					verdict, ok = "EXCEEDS BOUND", false
				}
				fmt.Printf("   %-20s %-22s %v %s  spread %.2f%%  bound %.0f%%  %s\n",
					sp.name, d.Name, formatValues(vs), d.Unit, spread*100, d.Bound*100, verdict)
			}
		}
	}
	if !ok {
		fmt.Println("FAIL")
		return 1
	}
	fmt.Println("PASS")
	return 0
}

func formatValues(vs []float64) string {
	s := "["
	for i, v := range vs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4g", v)
	}
	return s + "]"
}
