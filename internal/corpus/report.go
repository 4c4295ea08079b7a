package corpus

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Row is one program's metrics in the HPL benchmark-report shape
// (N/NB/P/Q/time/Gflops plus a validity check), extended with the
// prediction-side columns the differential harness adds.
type Row struct {
	Name     string  `json:"name"`
	Kernel   string  `json:"kernel"`
	N        int     `json:"N"`
	NB       int     `json:"NB"`     // CYCLIC(k)/BLOCK(n) chunk; 0 = format default
	P        int     `json:"P"`      // processor grid rows
	Q        int     `json:"Q"`      // processor grid cols (1 for 1-D grids)
	Time     float64 `json:"time"`   // measured (simulated) seconds
	Gflops   float64 `json:"Gflops"` // nominal kernel flops / time
	PredTime float64 `json:"pred_time"`
	RelErr   float64 `json:"rel_err"`
	Bound    float64 `json:"bound"`
	Valid    bool    `json:"valid"`
	Err      string  `json:"err,omitempty"`
}

// FamilySummary aggregates one kernel family's verdicts.
type FamilySummary struct {
	Count     int     `json:"count"`
	Passed    int     `json:"passed"`
	MaxRelErr float64 `json:"max_rel_err"`
	Bound     float64 `json:"bound"`
}

// Report is the corpus validation report: per-program rows in
// generation order plus per-family aggregates. Serialization is
// deterministic (slices ordered, map keys sorted by encoding/json), so
// two runs over the same corpus — resumed or not — emit the same bytes.
type Report struct {
	Count    int                      `json:"count"`
	Passed   int                      `json:"passed"`
	Failed   int                      `json:"failed"`
	Families map[string]FamilySummary `json:"families"`
	Rows     []Row                    `json:"rows"`
}

// Pass reports whether every program validated.
func (r *Report) Pass() bool { return r.Failed == 0 }

// BuildReport aggregates verdicts (in generation order) into a Report.
func BuildReport(verdicts []Verdict) *Report {
	r := &Report{Families: make(map[string]FamilySummary)}
	for _, v := range verdicts {
		pq := [2]int{v.GridP, 1}
		if v.GridQ > 0 {
			pq[1] = v.GridQ
		}
		row := Row{
			Name:     v.Name,
			Kernel:   string(v.Family),
			N:        v.N,
			NB:       v.NB,
			P:        pq[0],
			Q:        pq[1],
			Time:     v.MeasUS / 1e6,
			PredTime: v.PredUS / 1e6,
			RelErr:   v.RelErr,
			Bound:    v.Bound,
			Valid:    v.Pass(),
			Err:      v.Err,
		}
		if v.MeasUS > 0 {
			row.Gflops = v.Flops() / v.MeasUS / 1e3
		}
		r.Rows = append(r.Rows, row)
		r.Count++
		fs := r.Families[row.Kernel]
		fs.Count++
		fs.Bound = v.Bound
		if row.Valid {
			fs.Passed++
			r.Passed++
		} else {
			r.Failed++
		}
		if v.Err == "" && v.RelErr > fs.MaxRelErr {
			fs.MaxRelErr = v.RelErr
		}
		r.Families[row.Kernel] = fs
	}
	return r
}

// JSON renders the report as indented JSON with a trailing newline.
func (r *Report) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		// Report contains only marshalable field types.
		panic(fmt.Sprintf("corpus: marshal report: %v", err))
	}
	return append(b, '\n')
}

// Text renders the human summary: one HPL-style line per program and a
// per-family roll-up.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-10s %6s %4s %3s %3s %12s %10s %8s %s\n",
		"name", "kernel", "N", "NB", "P", "Q", "time(s)", "Gflops", "relerr", "valid")
	for _, row := range r.Rows {
		status := "PASS"
		if !row.Valid {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "%-16s %-10s %6d %4d %3d %3d %12.6f %10.6f %7.2f%% %s\n",
			row.Name, row.Kernel, row.N, row.NB, row.P, row.Q,
			row.Time, row.Gflops, row.RelErr*100, status)
		if row.Err != "" {
			fmt.Fprintf(&b, "    %s\n", row.Err)
		}
	}
	fams := make([]string, 0, len(r.Families))
	for f := range r.Families {
		fams = append(fams, f)
	}
	sort.Strings(fams)
	b.WriteString("\nper-family max relative error:\n")
	for _, f := range fams {
		fs := r.Families[f]
		fmt.Fprintf(&b, "  %-10s %3d/%3d passed, max |pred-meas|/meas %5.2f%% (bound %.0f%%)\n",
			f, fs.Passed, fs.Count, fs.MaxRelErr*100, fs.Bound*100)
	}
	fmt.Fprintf(&b, "\n%d programs: %d passed, %d failed\n", r.Count, r.Passed, r.Failed)
	return b.String()
}
