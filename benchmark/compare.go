package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func readDocument(path string) (document, error) {
	var d document
	data, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// compareFiles prints, for every workload and end-to-end metric the two
// documents share, how much worse B is than A as a share of A, beside the
// metric's bound. A pairing whose spread exceeds the bound on either side
// is "unresolved": the runs cannot tell a regression from noise, and
// saying "unchanged" would be a claim. It returns the process exit code: 1
// when a resolved pairing is out of bounds or either document is incorrect.
func compareFiles(pathA, pathB string) int {
	a, err := readDocument(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := readDocument(pathB)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("A: %s  commit %s  seed %d  %gs\nB: %s  commit %s  seed %d  %gs\n",
		pathA, a.Commit, a.Seed, a.Seconds, pathB, b.Commit, b.Seed, b.Seconds)
	code := 0
	if !a.Correct || !b.Correct {
		fmt.Println("a document reports incorrect outputs or a gate violation")
		code = 1
	}
	byName := map[string]docWorkload{}
	for _, w := range b.Workloads {
		byName[w.Workload] = w
	}
	fmt.Printf("%-15s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse by", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Workload]
		if !ok {
			continue
		}
		for _, spec := range endToEnd {
			ma, mb := wa.EndToEnd[spec.Name], wb.EndToEnd[spec.Name]
			worse := ratio(mb.Value-ma.Value, ma.Value)
			if spec.Better == higher {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case ma.Spread > spec.Bound || mb.Spread > spec.Bound:
				verdict = "unresolved"
			case worse > spec.Bound:
				verdict = "REGRESSION"
				code = 1
			}
			fmt.Printf("%-15s %-20s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
				wa.Workload, spec.Name, ma.Value, mb.Value, 100*worse, 100*spec.Bound, verdict)
		}
		if wa.Checksum != wb.Checksum && a.Seed == b.Seed && a.Seconds == b.Seconds {
			fmt.Printf("%-15s request checksums differ: %s vs %s\n", wa.Workload, wa.Checksum, wb.Checksum)
			code = 1
		}
	}
	return code
}
