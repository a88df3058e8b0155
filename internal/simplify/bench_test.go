package simplify

import (
	"testing"

	"berkmin/internal/gen"
)

// BenchmarkEliminate times simplify.Run under the default options on the
// medium hanoi5 and 4pipe instruments, one op preprocessing both. Run it
// with -benchmem: allocs/op gates the elimination pass, which should
// allocate only for the clauses it keeps.
func BenchmarkEliminate(b *testing.B) {
	formulas := []gen.Instance{gen.Hanoi(5), gen.PipeUnsat(4, 5, 51)}
	b.ReportAllocs()
	for b.Loop() {
		for _, inst := range formulas {
			if o, _, _ := Run(inst.Formula, DefaultOptions(), 0, nil); o.Unsat {
				b.Fatalf("%s: preprocessing refuted a formula it cannot refute", inst.Name)
			}
		}
	}
}
