package main

import (
	"fmt"
	"os"
)

// report prints a human-readable summary of an untraced run to stderr,
// with the load generator's lateness beside the latencies it is part of:
// they run from the due time, and a late generator is not a slow server.
func report(wl workload, trn *trainResult, sv *serveResult) {
	var late []float64
	for _, r := range sv.ref {
		late = append(late, msOf(r.sent.Sub(r.due)))
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %s: %d epochs, validation %.2f at epoch %d, %d reference predicts (generator lateness p50 %.3f ms, p99 %.3f ms), %d updates\n",
		wl.name, len(trn.epochs), targetAcc, trn.reachedEpoch, len(sv.ref), median(late), quantile(late, 0.99), len(sv.upds))
}
