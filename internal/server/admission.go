package server

// The admission gate. Every request the api() wrapper serves passes
// three checks, in this order, and each refuses with an *apiError that
// carries its own status, stage and Retry-After hint:
//
//  1. drain (enter): while the server drains, 503 "overload" with
//     Retry-After QueueWait. An admitted request joins the drain group
//     in the same step, so Shutdown never misses one.
//  2. worker slot (acquireSlot): a free slot, or a place in the bounded
//     wait queue for at most QueueWait. A full queue or an expired wait
//     is a 429 "overload" with Retry-After QueueWait/2; a client that
//     leaves while queued gets a 503.
//  3. cost (admitCost): the handler prices each compiled program with
//     the static analyzer (analysis.Price over the compile entry's
//     unpinned analysis) before anything is interpreted or executed.
//     A program over the per-request ceiling (Config.MaxCostUnits), and
//     a request whose summed price does not fit the free aggregate
//     in-flight budget (Config.MaxInflightCostUnits), get a 429
//     "admission" carrying the estimate and the violated budget. The
//     in-flight budget is the priced variant of the bounded queue: it
//     tells one 10^9-unit sweep from fifty 10^3-unit line queries where
//     the worker slots cannot.
//
// api() writes every refusal, and every other non-2xx response, through
// one function (fail). Job event streams (events.go) pass the drain
// check only.

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"hpfperf/internal/sweep"
)

// enter is the gate's drain check. Unless the server is draining it
// registers the caller with the drain group under the same read lock
// that Shutdown's write lock excludes, so no request can join the group
// once Shutdown has started waiting on it. An admitted caller must call
// s.inflight.Done.
func (s *Server) enter() *apiError {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		s.met.rejected.Add(1)
		return &apiError{status: http.StatusServiceUnavailable, stage: "overload",
			err: errors.New("server is draining"), retryAfter: s.cfg.QueueWait}
	}
	s.inflight.Add(1)
	return nil
}

// acquireSlot is the gate's worker-slot check: take a free slot at
// once, or wait in the bounded queue for at most QueueWait. On
// admission the caller must release the slot (<-s.sem).
func (s *Server) acquireSlot(r *http.Request) *apiError {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	shed := func(err error) *apiError {
		s.met.shed.Add(1)
		return &apiError{status: http.StatusTooManyRequests, stage: "overload", err: err, retryAfter: s.cfg.QueueWait / 2}
	}
	if s.met.queued.Add(1) > int64(s.cfg.MaxQueueDepth) {
		s.met.queued.Add(-1)
		return shed(fmt.Errorf("server saturated: %d requests in flight and wait queue full", cap(s.sem)))
	}
	defer s.met.queued.Add(-1)
	timer := time.NewTimer(s.cfg.QueueWait)
	defer timer.Stop()
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-timer.C:
		return shed(fmt.Errorf("no worker slot within %v", s.cfg.QueueWait))
	case <-r.Context().Done():
		s.met.rejected.Add(1)
		return errf(http.StatusServiceUnavailable, "overload", "cancelled while waiting for a worker slot")
	}
}

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

// admitCost is the gate's cost check over one request's compiled
// programs: one for predict and measure, one per point for a batch (nil
// entries are points that already failed). Each program is priced and
// held to the per-request ceiling. A program that fails either is
// passed to refuse and left out of the sum; with a nil refuse its
// refusal is the request's. The summed price is then reserved against
// the in-flight budget in one decision, and what names the request
// ("program", "batch") in that refusal. On admission the returned
// release must be deferred.
func (s *Server) admitCost(what string, refuse func(i int, aerr *apiError), progs ...*sweep.Program) (func(), *apiError) {
	if s.cfg.MaxCostUnits <= 0 && s.cfg.MaxInflightCostUnits <= 0 {
		return func() {}, nil
	}
	var units float64
	for i, prog := range progs {
		if prog == nil {
			continue
		}
		// The compile entry builds the definition trace and price at most
		// once, and the prediction form later reuses that same trace, so
		// admission adds no tracing of its own to a cold request.
		price, err := prog.Price()
		var aerr *apiError
		switch {
		case err != nil:
			aerr = ctxErr(err, http.StatusInternalServerError, "admission")
		case s.cfg.MaxCostUnits > 0 && price.CostUnits > s.cfg.MaxCostUnits:
			s.met.costRejected.Add(1)
			aerr = &apiError{
				status:    http.StatusTooManyRequests,
				stage:     "admission",
				err:       fmt.Errorf("program prices at %.0f cost units, over the per-request budget of %.0f", price.CostUnits, s.cfg.MaxCostUnits),
				estCost:   price.CostUnits,
				costLimit: s.cfg.MaxCostUnits,
			}
		default:
			units += price.CostUnits
			continue
		}
		if refuse == nil {
			return nil, aerr
		}
		refuse(i, aerr)
	}

	// The cumulative counter takes whole milli-units like costMilli, but
	// unsaturated, so a price past the saturation point counts at its
	// own size; sums of ordinary prices stay exact in a float64.
	admitted := math.Trunc(units * 1000)
	milli := costMilli(units)
	if s.cfg.MaxInflightCostUnits <= 0 {
		s.met.costAdmittedMilli.Add(admitted)
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
	s.met.costAdmittedMilli.Add(admitted)
	return func() { s.met.costInflightMilli.Add(-milli) }, nil
}
