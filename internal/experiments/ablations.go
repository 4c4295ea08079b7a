package experiments

import (
	"fmt"

	"hpfperf/internal/compiler"
	"hpfperf/internal/core"
	"hpfperf/internal/exec"
	"hpfperf/internal/ipsc"
	"hpfperf/internal/report"
	"hpfperf/internal/suite"
)

// AblationRow is one design-choice comparison: the prediction error of a
// variant model against the paper-faithful default, on a workload chosen
// to stress that choice.
type AblationRow struct {
	Name       string
	Workload   string
	DefaultErr float64 // signed error % of the default configuration
	VariantErr float64 // signed error % of the ablated configuration
}

// Ablations evaluates the design choices called out in DESIGN.md §5:
// the SAU memory model, the max-loaded-processor accounting, the
// piecewise (protocol-aware) communication characterization, and the
// compiler's loop re-ordering.
func Ablations(cfg Config) ([]AblationRow, error) {
	var rows []AblationRow

	predictErr := func(src string, opts core.Options) (float64, float64, error) {
		prog, err := compiler.Compile(src)
		if err != nil {
			return 0, 0, err
		}
		mcfg := ipsc.DefaultConfig(prog.Info.Grid.Size())
		mcfg.PerturbAmp = 0
		mcfg.TimerResUS = 0
		m, err := ipsc.New(mcfg)
		if err != nil {
			return 0, 0, err
		}
		res, err := exec.Run(prog, m, exec.Options{})
		if err != nil {
			return 0, 0, err
		}
		it, err := core.New(prog, nil, opts)
		if err != nil {
			return 0, 0, err
		}
		rep, err := it.Interpret()
		if err != nil {
			return 0, 0, err
		}
		return (rep.TotalUS() - res.MeasuredUS) / res.MeasuredUS * 100, res.MeasuredUS, nil
	}

	// 1. Memory model.
	{
		src := suite.LaplaceBX().Source(128, 4)
		def := core.DefaultOptions()
		variant := core.DefaultOptions()
		variant.MemoryModel = false
		d, _, err := predictErr(src, def)
		if err != nil {
			return nil, err
		}
		v, _, err := predictErr(src, variant)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Name: "memory model off", Workload: "Laplace (Blk,*) N=128 4p",
			DefaultErr: d, VariantErr: v,
		})
	}

	// 2. Load model.
	{
		src := `PROGRAM imb
PARAMETER (N = 10)
REAL A(N)
!HPF$ PROCESSORS P(8)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
DO IT = 1, 200
  FORALL (K=1:N) A(K) = SQRT(A(K)*1.5 + 2.0)
END DO
CHK = SUM(A)
END`
		def := core.DefaultOptions()
		variant := core.DefaultOptions()
		variant.LoadModel = core.Average
		d, _, err := predictErr(src, def)
		if err != nil {
			return nil, err
		}
		v, _, err := predictErr(src, variant)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Name: "average-load accounting", Workload: "imbalanced N=10 8p",
			DefaultErr: d, VariantErr: v,
		})
	}

	// 3. Communication characterization.
	{
		src := suite.LaplaceBB().Source(16, 8)
		def := core.DefaultOptions()
		variant := core.DefaultOptions()
		variant.SimpleCommModel = true
		d, _, err := predictErr(src, def)
		if err != nil {
			return nil, err
		}
		v, _, err := predictErr(src, variant)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Name: "single-line comm models", Workload: "Laplace (Blk,Blk) N=16 8p",
			DefaultErr: d, VariantErr: v,
		})
	}

	// 4. Loop re-ordering (a compiler optimization: compare measured cost,
	// expressed as the slowdown of disabling it).
	{
		src := suite.LaplaceBX().Source(96, 4)
		measure := func(opts compiler.Options) (float64, error) {
			prog, err := compiler.CompileWith(src, opts)
			if err != nil {
				return 0, err
			}
			mcfg := ipsc.DefaultConfig(prog.Info.Grid.Size())
			mcfg.PerturbAmp = 0
			mcfg.TimerResUS = 0
			m, err := ipsc.New(mcfg)
			if err != nil {
				return 0, err
			}
			res, err := exec.Run(prog, m, exec.Options{})
			if err != nil {
				return 0, err
			}
			return res.MeasuredUS, nil
		}
		good, err := measure(compiler.Options{})
		if err != nil {
			return nil, err
		}
		bad, err := measure(compiler.Options{NoLoopReorder: true})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Name: "loop re-ordering off (measured slowdown %)", Workload: "Laplace (Blk,*) N=96 4p",
			DefaultErr: 0, VariantErr: (bad - good) / good * 100,
		})
	}
	return rows, nil
}

// RenderAblations renders the ablation table.
func RenderAblations(rows []AblationRow) string {
	headers := []string{"Ablation", "Workload", "Default err", "Ablated err"}
	var body [][]string
	for _, r := range rows {
		body = append(body, []string{
			r.Name, r.Workload,
			fmt.Sprintf("%+.1f%%", r.DefaultErr),
			fmt.Sprintf("%+.1f%%", r.VariantErr),
		})
	}
	return "Ablations: design choices of the characterization methodology\n" +
		report.Table(headers, body)
}
