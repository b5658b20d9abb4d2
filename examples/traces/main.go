// Traces: the paper's Section IV-B case study on software execution
// traces. Mines closed repetitive patterns from JBoss-transaction-style
// traces, applies the density/maximality/ranking post-processing, and
// prints the recovered canonical behaviour — including the merged
// "resource enlistment + commit" flow that iterative-pattern mining had to
// split in two, and the dominant fine-grained Lock -> Unlock pair. Run:
//
//	go run ./examples/traces
package main

import (
	"fmt"
	"log"
	"strings"

	"repro"
	"repro/internal/datagen"
	"repro/internal/harness"
)

func main() {
	// Synthesize the case-study workload (the original industrial traces
	// are not redistributable; the generator rebuilds their published
	// structure — see EXPERIMENTS.md, "Case study"), mine its closed
	// patterns and apply the case-study post-processing: density > 40%,
	// maximal only, rank by length.
	rep, err := harness.CaseStudy(
		harness.Dataset{JBoss: &datagen.JBossParams{NumTraces: 12, NoiseMean: 2, Seed: 9}},
		repro.Options{MinSupport: 12, Closed: true}, 0.40)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("traces:", rep.Dataset.String())
	fmt.Printf("CloGSgrow: %d closed patterns in %v\n", rep.Mined.NumPatterns, rep.Mined.Elapsed)
	fmt.Printf("after post-processing: %d patterns\n\n", len(rep.Kept))

	longest := rep.Kept[0]
	fmt.Printf("longest behavioural pattern: %d events, support %d\n", len(longest.Events), longest.Support)
	blocks := []struct{ name, first string }{
		{"Connection Set Up", "TransManLoc.getInstance"},
		{"Tx Manager Set Up", "TxManager.getInstance"},
		{"Transaction Set Up", "TransImpl.assocCurThd"},
		{"Resource Enlistment & Execution", "TransImpl.enlistResource"},
		{"Transaction Commit", "TxManager.commit"},
		{"Transaction Dispose", "TxManager.releaseTransImpl"},
	}
	for i, name := range longest.Events {
		for _, blk := range blocks {
			if name == blk.first {
				fmt.Printf("  -- %s --\n", blk.name)
			}
		}
		fmt.Printf("  %2d. %s\n", i+1, name)
	}

	// The most frequent fine-grained behaviour.
	fmt.Printf("\nmost frequent 2-event behaviour: %s (support %d)\n",
		strings.Join(rep.Pair.Events, " -> "), rep.Pair.Support)
}
