package sim_test

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sim"
)

// countdown is a minimal LOCAL algorithm for the examples: every node pings
// its neighbors for three rounds and then terminates, outputting how many
// messages it heard in total. A degree-d node hears d messages in each of
// rounds 1-3 (its neighbors' round-0..2 sends arrive one round later), so on
// a path the endpoints output 3 and interior nodes output 6. It sends
// through its receive window, as the Machine contract allows, so its rounds
// allocate nothing.
type countdown struct{}

func (countdown) Name() string { return "countdown" }

func (countdown) NewMachine(sim.NodeInfo) sim.Machine { return &countdownMachine{} }

type countdownMachine struct{ heard int }

func (m *countdownMachine) Step(round int, recv []any) ([]any, bool) {
	for _, msg := range recv {
		if _, ok := msg.(string); ok {
			m.heard++
		}
	}
	if round >= 3 {
		return nil, true
	}
	for i := range recv {
		recv[i] = "ping"
	}
	return recv, false
}

func (m *countdownMachine) Output() any { return m.heard }

// ExampleNewEngine configures an Engine with functional options and runs a
// deterministic three-round algorithm on a path. The same options plus
// WithParallelism or WithShards would produce bit-identical Rounds, Outputs,
// and Messages.
func ExampleNewEngine() {
	tree, err := graph.BuildPath(5)
	if err != nil {
		panic(err)
	}
	eng := sim.NewEngine(
		sim.WithIDs(sim.SequentialIDs(5)), // deterministic identifiers
		sim.WithMaxRounds(100),
	)
	res, err := eng.Run(tree, countdown{})
	if err != nil {
		panic(err)
	}
	fmt.Println("total rounds:", res.TotalRounds)
	fmt.Println("node-averaged:", res.NodeAveraged())
	fmt.Println("outputs:", res.Outputs)
	// Output:
	// total rounds: 4
	// node-averaged: 3
	// outputs: [3 6 6 6 3]
}

// ExampleNewEngine_sharded runs the same computation on the sharded backend:
// the path is split into two node-range shards that exchange only the
// messages crossing the single boundary edge. Results are bit-identical to
// the sequential run; the per-shard statistics report the boundary traffic.
func ExampleNewEngine_sharded() {
	tree, err := graph.BuildPath(5)
	if err != nil {
		panic(err)
	}
	res, err := sim.NewEngine(
		sim.WithIDs(sim.SequentialIDs(5)),
		sim.WithShards(2),
	).Run(tree, countdown{})
	if err != nil {
		panic(err)
	}
	fmt.Println("outputs:", res.Outputs)
	for _, s := range res.Shards {
		fmt.Printf("shard %d: %d nodes, %d boundary edges, %d messages crossed\n",
			s.Shard, s.Nodes, s.BoundaryEdges, s.MessagesCrossed)
	}
	// Output:
	// outputs: [3 6 6 6 3]
	// shard 0: 3 nodes, 1 boundary edges, 3 messages crossed
	// shard 1: 2 nodes, 1 boundary edges, 3 messages crossed
}
