package fabric

import (
	"errors"
	"fmt"
	"strings"

	"aurochs/internal/analysis/flow"
	"aurochs/internal/sim"
)

// This file is the differential half of the token-flow prover: a witness
// is only worth its name if the real simulator fails the way it predicts.
// ReplayWitness drives a concrete graph — built by the caller with at
// least Witness.Inject records at the cycle's external input — and
// asserts the engine reaches exactly the predicted failure:
//
//   - wedge  → the run never completes: sim.DeadlockError when motion
//     stops outright, or sim.BudgetError when the saturated ring keeps
//     rotating (livelock) — either way with every witness-Blocked
//     component in the stuck set;
//   - stall  → the graph quiesces with work done but end-of-stream
//     undeliverable: sim.DeadlockError with the Blocked components stuck;
//   - underflow → the LoopCtl "inflight underflow" panic.
//
// The run bypasses Graph.Check on purpose: several witnessed shapes (a
// swapped LoopMerge, an uncounted side entrance) are also structural
// Check errors, and the point of the replay is to show the prover's
// runtime prediction holds, not that a second analyzer objects earlier.

// ReplayBudget bounds a replay in cycles: generous enough that a healthy
// graph of Inject records finishes, small enough that a witness wrongly
// predicting failure on a live graph is caught by the budget, not a hang.
func ReplayBudget(w *flow.Witness) int64 {
	return 4000 + 200*int64(w.Inject)
}

// ReplayWitness runs the graph against the witness's prediction and
// returns nil exactly when the engine fails as predicted. Any other
// outcome — a clean drain, the wrong failure mode, a stuck set missing a
// predicted component — is returned as an error describing the
// divergence.
func ReplayWitness(g *Graph, w *flow.Witness) error {
	var runErr error
	panicked, panicMsg := false, ""
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicked = true
				panicMsg = fmt.Sprint(r)
			}
		}()
		// A predicted underflow panic fires on this goroutine, where the
		// recover above catches it.
		_, runErr = g.Sys.Run(ReplayBudget(w))
	}()

	switch w.Mode {
	case flow.UnderflowWitness:
		if !panicked {
			return fmt.Errorf("replay %s: predicted an inflight-underflow panic, got %v", w.Rule, runErr)
		}
		if !strings.Contains(panicMsg, "inflight underflow") {
			return fmt.Errorf("replay %s: predicted an inflight-underflow panic, engine panicked differently: %s", w.Rule, panicMsg)
		}
		return nil
	case flow.WedgeWitness, flow.StallWitness:
		if panicked {
			return fmt.Errorf("replay %s: predicted a deadlock, engine panicked: %s", w.Rule, panicMsg)
		}
		var stuckSet []string
		var dl *sim.DeadlockError
		var be *sim.BudgetError
		switch {
		case errors.As(runErr, &dl):
			stuckSet = dl.Stuck
		case w.Mode == flow.WedgeWitness && errors.As(runErr, &be):
			// A saturated ring can livelock — rotate forever without
			// draining. The generous replay budget makes exhaustion with
			// the predicted components still stuck the wedge's signature.
			stuckSet = be.Stuck
		default:
			return fmt.Errorf("replay %s: predicted a deadlock with %v stuck, got %v", w.Rule, w.Blocked, runErr)
		}
		stuck := make(map[string]bool, len(stuckSet))
		for _, s := range stuckSet {
			stuck[s] = true
		}
		for _, b := range w.Blocked {
			if !stuck[b] {
				return fmt.Errorf("replay %s: predicted %q stuck, stuck set is %v", w.Rule, b, stuckSet)
			}
		}
		return nil
	default:
		return fmt.Errorf("replay: unknown witness mode %q", w.Mode)
	}
}
