package main

import (
	"context"
	"fmt"

	"casyn/benchmark/oracle"
	"casyn/internal/bench"
	"casyn/internal/logic"
)

// vectorWords is the oracle's random-vector budget per circuit: 64
// words of 64 vectors.
const vectorWords = 64

// input is one generated circuit with its oracle reference.
type input struct {
	name string
	pla  *logic.PLA
	vec  *oracle.Vectors
	want oracle.Values
}

// specFor derives a class's generation parameters from the workload
// seed. Seed 0 is the repository's canonical circuit of the class;
// every other seed draws a different circuit of the same class and
// size.
func specFor(class bench.Class, seed int64, scale float64) bench.Spec {
	spec := class.Spec()
	if scale != 1 {
		spec = class.ScaledSpec(scale)
	}
	spec.Seed += int64(uint64(seed) * 0x9e3779b97f4a7c15)
	return spec
}

// generate builds one input circuit. The oracle's reference outputs are
// computed later, outside the set-up time, by reference.
func generate(ctx context.Context, name string, spec bench.Spec, vecSeed int64) (*input, error) {
	in := &input{name: name}
	err := call(ctx, "bench.Generate", func(context.Context) error {
		var err error
		in.pla, err = bench.Generate(spec)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", name, err)
	}
	names, _ := oracle.PLANames(in.pla)
	in.vec = oracle.Random(names, vectorWords, vecSeed)
	return in, nil
}

// reference returns the PLA's outputs on the input's vectors, evaluated
// from its cubes.
func (in *input) reference() (oracle.Values, error) {
	if in.want == nil {
		w, err := oracle.PLA(in.pla, in.vec)
		if err != nil {
			return nil, err
		}
		in.want = w
	}
	return in.want, nil
}
