// Batch data plane: POST /v1/batch evaluates many predict/measure
// points — mixed sizes, procs, options and sources — in one request.
// The paper's whole workflow is table-shaped (Table 2 and Figures 4/5/8
// are dozens of points over one source), and a batch makes a table cost
// what it should: points are deduplicated per (source, compile options)
// so one source compiles exactly once through the engine's single-
// flight cache, the whole batch is cost-priced once through the
// admission gate (a 429 carries the aggregate estimate), and the points
// fan out onto the sweep worker pool under per-point "sweep.point"
// spans. Points are isolated: one invalid or failing point becomes a
// per-point error object in the results array, never a failed batch,
// and each per-point report is byte-identical to the corresponding
// sequential /v1/predict or /v1/measure call (ElapsedUS excepted, which
// stays zero on batch points).

package server

import (
	"context"
	"net/http"
	"time"

	"hpfperf/internal/compiler"
	"hpfperf/internal/sweep"
)

// BatchPoint is one point of a batch: exactly one of Predict or Measure
// must be set. Per-point timeout_ms fields are ignored — the batch-
// level timeout governs every point.
type BatchPoint struct {
	Predict *PredictRequest `json:"predict,omitempty"`
	Measure *MeasureRequest `json:"measure,omitempty"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	// Points are the batch's evaluation points (required, at most
	// Config.MaxBatchPoints).
	Points []BatchPoint `json:"points"`
	// TimeoutMS caps the whole batch's wall time (0 = server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// BatchPointError is the per-point failure object: the status, stage
// and message the same request would have produced as a standalone
// call, without failing the surrounding batch.
type BatchPointError struct {
	Status int    `json:"status"`
	Stage  string `json:"stage,omitempty"`
	Error  string `json:"error"`
	// EstimatedCostUnits/CostLimitUnits mirror the admission gate's 429
	// body for a point over the per-request cost ceiling.
	EstimatedCostUnits float64 `json:"estimated_cost_units,omitempty"`
	CostLimitUnits     float64 `json:"cost_limit_units,omitempty"`
}

// BatchResult is one point's outcome: exactly one of Predict, Measure
// or Error is set.
type BatchResult struct {
	Index   int              `json:"index"`
	Predict *PredictResponse `json:"predict,omitempty"`
	Measure *MeasureResponse `json:"measure,omitempty"`
	Error   *BatchPointError `json:"error,omitempty"`
}

// BatchResponse is the body of a POST /v1/batch response. Results keeps
// request order (Results[i].Index == i always).
type BatchResponse struct {
	ResponseMeta
	Results   []BatchResult `json:"results"`
	OK        int           `json:"ok"`
	Failed    int           `json:"failed"`
	ElapsedUS float64       `json:"elapsed_us"`
}

func pointError(aerr *apiError) *BatchPointError {
	return &BatchPointError{
		Status: aerr.status, Stage: aerr.stage, Error: aerr.err.Error(),
		EstimatedCostUnits: aerr.estCost, CostLimitUnits: aerr.costLimit,
	}
}

// compileKey deduplicates batch compiles: the engine caches per
// (source, compile options), so pricing and evaluation share one
// compile per distinct key no matter how many points reference it.
type compileKey struct {
	src  string
	opts compiler.Options
}

func (s *Server) handleBatch(ctx context.Context, body []byte) (any, *apiError) {
	var req BatchRequest
	if aerr := decode(body, &req); aerr != nil {
		return nil, aerr
	}
	if len(req.Points) == 0 {
		return nil, errf(http.StatusBadRequest, "decode", "points is required")
	}
	if len(req.Points) > s.cfg.MaxBatchPoints {
		return nil, errf(http.StatusBadRequest, "decode", "batch of %d points exceeds the %d-point limit", len(req.Points), s.cfg.MaxBatchPoints)
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(ctx, s.timeout(req.TimeoutMS))
	defer cancel()

	results := make([]BatchResult, len(req.Points))
	fail := func(i int, aerr *apiError) { results[i].Error = pointError(aerr) }

	// Validate and compile, one compile per distinct (source, options):
	// a compile failure marks every point sharing the key, in the same
	// (status, stage, message) form the standalone call produces.
	type compiled struct {
		prog *sweep.Program
		aerr *apiError
	}
	progs := make([]*sweep.Program, len(req.Points))
	byKey := make(map[compileKey]compiled)
	for i := range req.Points {
		results[i].Index = i
		p := &req.Points[i]
		var key compileKey
		switch {
		case p.Predict != nil && p.Measure != nil, p.Predict == nil && p.Measure == nil:
			fail(i, errf(http.StatusBadRequest, "decode", "point %d: exactly one of predict or measure must be set", i))
			continue
		case p.Predict != nil:
			if aerr := validatePredict(p.Predict); aerr != nil {
				fail(i, aerr)
				continue
			}
			key = compileKey{src: p.Predict.Source, opts: p.Predict.Options.compilerOptions()}
		default:
			if aerr := validateMeasure(p.Measure); aerr != nil {
				fail(i, aerr)
				continue
			}
			key = compileKey{src: p.Measure.Source}
		}
		cv, ok := byKey[key]
		if !ok {
			prog, err := s.eng.Program(ctx, key.src, key.opts)
			if err != nil {
				cv = compiled{aerr: ctxErr(err, http.StatusBadRequest, "compile")}
			} else {
				cv = compiled{prog: prog}
			}
			byKey[key] = cv
		}
		if cv.aerr != nil {
			fail(i, cv.aerr)
			continue
		}
		progs[i] = cv.prog
	}

	// Cost admission: the per-request ceiling applies per point (an
	// over-budget point fails alone), then the batch's aggregate is
	// reserved against the in-flight budget in a single admission — one
	// decision for the whole table, with the aggregate estimate on a
	// rejection.
	release := func() {}
	if s.cfg.MaxCostUnits > 0 || s.cfg.MaxInflightCostUnits > 0 {
		var aggregate float64
		for i, prog := range progs {
			if prog == nil {
				continue
			}
			price, aerr := priceOf(prog)
			if aerr == nil {
				aerr = s.ceiling(price)
			}
			if aerr != nil {
				fail(i, aerr)
				progs[i] = nil
				continue
			}
			aggregate += price.CostUnits
		}
		var aerr *apiError
		if release, aerr = s.admitUnits("batch", aggregate); aerr != nil {
			return nil, aerr
		}
	}
	defer release()

	// Fan the surviving points onto the sweep worker pool: per-point
	// panic isolation, transient retry with backoff, and a "sweep.point"
	// span per point under the request root when traced — the same
	// machinery a Table 2 sweep runs on. The closure never returns an
	// error; failures become per-point error objects.
	idx := make([]int, 0, len(req.Points))
	for i := range results {
		if results[i].Error == nil {
			idx = append(idx, i)
		}
	}
	_, err := sweep.MapCtx(ctx, s.eng, len(idx), func(k int) (struct{}, error) {
		i := idx[k]
		p := &req.Points[i]
		var aerr *apiError
		if p.Predict != nil {
			results[i].Predict, aerr = s.evalPredict(ctx, progs[i], p.Predict)
		} else {
			results[i].Measure, aerr = s.evalMeasure(ctx, p.Measure, progs[i])
		}
		if aerr != nil {
			results[i].Predict, results[i].Measure = nil, nil
			fail(i, aerr)
		}
		return struct{}{}, nil
	})
	if err != nil {
		// The closure cannot fail, so err is batch-level: cancellation
		// left points undispatched, or injected sweep-site chaos outran
		// its retries. Mark the points that never produced an outcome and
		// keep every finished one.
		for _, i := range idx {
			if results[i].Error == nil && results[i].Predict == nil && results[i].Measure == nil {
				fail(i, ctxErr(err, http.StatusServiceUnavailable, "transient"))
			}
		}
	}

	resp := &BatchResponse{Results: results}
	for i := range results {
		if results[i].Error != nil {
			resp.Failed++
		} else {
			resp.OK++
		}
	}
	s.met.batchPointsOK.Add(int64(resp.OK))
	s.met.batchPointsFailed.Add(int64(resp.Failed))
	resp.ElapsedUS = float64(time.Since(start)) / float64(time.Microsecond)
	return resp, nil
}
