package server

// Cost-based admission control: every predict/measure request is
// pre-priced with the static analyzer (analysis.Price over the compiled
// program and its definition trace, both owned by the compile-cache
// entry) before any interpretation or simulated execution runs. Two
// budgets apply: a per-request ceiling (Config.MaxCostUnits) and an
// aggregate in-flight budget (Config.MaxInflightCostUnits) — the priced
// variant of the bounded queue, which distinguishes one 10^9-unit sweep
// from fifty 10^3-unit line queries where the raw concurrency gate
// cannot. Rejections are 429s carrying the estimate and the violated
// budget in the body.

import (
	"fmt"
	"math"
	"net/http"

	"hpfperf/internal/analysis"
	"hpfperf/internal/sweep"
)

// costMilli converts cost units to the integer milli-units the atomic
// in-flight accumulator tracks, saturating instead of overflowing: a
// pathological price (deeply nested unresolved loops at assumed trips
// compound to ~1e15+ units) converted unguarded is implementation-
// defined in Go and goes negative on amd64, which would corrupt the
// in-flight accumulator and bypass the gate. Saturation is at half of
// MaxInt64 so cur+milli in the admission CAS loop can never overflow
// (cur itself is bounded by one saturated admission against an idle
// budget plus a budget below the saturation point).
func costMilli(units float64) int64 {
	const satMilli = math.MaxInt64 / 2
	if units >= float64(satMilli)/1000 {
		return satMilli
	}
	if units < 0 {
		return 0
	}
	return int64(units * 1000)
}

// ceiling checks a single point's price against the per-request budget.
// Batch requests apply it per point — one over-budget point yields a
// per-point error object — while the aggregate goes through admitUnits.
func (s *Server) ceiling(price *analysis.PriceReport) *apiError {
	if s.cfg.MaxCostUnits > 0 && price.CostUnits > s.cfg.MaxCostUnits {
		s.met.costRejected.Add(1)
		return &apiError{
			status:    http.StatusTooManyRequests,
			stage:     "admission",
			err:       fmt.Errorf("program prices at %.0f cost units, over the per-request budget of %.0f", price.CostUnits, s.cfg.MaxCostUnits),
			estCost:   price.CostUnits,
			costLimit: s.cfg.MaxCostUnits,
		}
	}
	return nil
}

// admitUnits reserves already-priced work against the aggregate
// in-flight budget in one CAS. what names the unit of work ("program",
// "batch") in the rejection message. On admission the returned release
// must be deferred; on rejection the 429 carries the estimate.
func (s *Server) admitUnits(what string, units float64) (func(), *apiError) {
	milli := costMilli(units)
	if s.cfg.MaxInflightCostUnits <= 0 {
		s.met.costAdmittedMilli.Add(milli)
		return func() {}, nil
	}
	maxMilli := costMilli(s.cfg.MaxInflightCostUnits)
	for {
		cur := s.met.costInflightMilli.Load()
		// Always admit against an idle budget so one request larger than
		// the aggregate budget cannot starve forever.
		if cur > 0 && cur+milli > maxMilli {
			s.met.costRejected.Add(1)
			return nil, &apiError{
				status:    http.StatusTooManyRequests,
				stage:     "admission",
				err:       fmt.Errorf("%s prices at %.0f cost units but only %.0f of the %.0f in-flight budget is free", what, units, s.cfg.MaxInflightCostUnits-float64(cur)/1000, s.cfg.MaxInflightCostUnits),
				estCost:   units,
				costLimit: s.cfg.MaxInflightCostUnits,
			}
		}
		if s.met.costInflightMilli.CompareAndSwap(cur, cur+milli) {
			break
		}
	}
	s.met.costAdmittedMilli.Add(milli)
	return func() { s.met.costInflightMilli.Add(-milli) }, nil
}

// priceOf is the static price of a compile-cache entry's unpinned
// analysis. The entry builds the definition trace and price at most
// once, and the prediction form later reuses that same trace, so
// admission adds no tracing of its own to a cold request.
func priceOf(prog *sweep.Program) (*analysis.PriceReport, *apiError) {
	price, err := prog.Price()
	if err != nil {
		return nil, ctxErr(err, http.StatusInternalServerError, "admission")
	}
	return price, nil
}

// admitCost prices a compiled program and runs it through both cost
// budgets. On admission it returns the price and a release func the
// caller must defer; on rejection it returns a 429 apiError carrying
// the estimate.
func (s *Server) admitCost(prog *sweep.Program) (*analysis.PriceReport, func(), *apiError) {
	if s.cfg.MaxCostUnits <= 0 && s.cfg.MaxInflightCostUnits <= 0 {
		return nil, func() {}, nil
	}
	price, aerr := priceOf(prog)
	if aerr != nil {
		return nil, nil, aerr
	}
	if aerr := s.ceiling(price); aerr != nil {
		return nil, nil, aerr
	}
	release, aerr := s.admitUnits("program", price.CostUnits)
	if aerr != nil {
		return nil, nil, aerr
	}
	return price, release, nil
}
