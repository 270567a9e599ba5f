package analysis

import (
	"go/ast"
	"strconv"
	"strings"
)

// defaultRandSourcePackages are the packages randsource guards. The
// first four are the runtime: every stochastic choice there must flow
// through the internal/prng seed-stream registry, or checkpoint/resume
// stops being bit-for-bit (math/rand.Rand hides 617 words of state) and
// virtual time stops being the only clock. The rest accept caller-
// supplied rngs or synthesize seeded datasets; direct math/rand there is
// legal only under an explicit //fedtripvet:allow with the reason on
// record.
const defaultRandSourcePackages = "repro/internal/core," +
	"repro/internal/comm," +
	"repro/internal/algos," +
	"repro/internal/quantize," +
	"repro/internal/tensor," +
	"repro/internal/data," +
	"repro/internal/partition," +
	"repro/internal/experiments"

// bannedRandPackages are the import paths whose every member reference
// is a randsource diagnostic.
var bannedRandPackages = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

// bannedTimeMembers are the wall-clock entry points of package time. The
// runtime's only clock is the simulated one (RunState.Now); wall
// time in a trajectory-relevant path breaks run reproducibility.
var bannedTimeMembers = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// NewRandSource returns the randsource analyzer: no direct math/rand or
// wall-clock use in the packages it guards.
func NewRandSource() *Analyzer {
	a := &Analyzer{
		Name: "randsource",
		Doc: "forbid direct math/rand and wall-clock time in runtime packages\n\n" +
			"Randomness must derive from the internal/prng seed-stream registry\n" +
			"(serializable, collision-free by construction) and time from the\n" +
			"run's virtual clock. Escape hatch: //fedtripvet:allow <reason>.",
	}
	pkgs := a.Flags.String("packages", defaultRandSourcePackages,
		"comma-separated import paths the analyzer guards")
	a.Run = func(pass *Pass) (any, error) {
		guarded := false
		for _, p := range strings.Split(*pkgs, ",") {
			if strings.TrimSpace(p) == pass.Pkg.Path() {
				guarded = true
				break
			}
		}
		if !guarded {
			return nil, nil
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ImportSpec:
					path, err := strconv.Unquote(n.Path.Value)
					if err == nil && bannedRandPackages[path] && n.Name != nil && n.Name.Name == "." {
						pass.Reportf(n.Pos(), "dot-import of %s hides every use from review; import the package qualified (and justify each use with //fedtripvet:allow)", path)
					}
				case *ast.SelectorExpr:
					pn, ok := importedPkg(pass.TypesInfo, n.X)
					if !ok {
						return true
					}
					switch path := pn.Imported().Path(); {
					case bannedRandPackages[path]:
						pass.Reportf(n.Pos(), "direct %s.%s: randomness must come from a named internal/prng seed stream (or carry //fedtripvet:allow <reason>)", pn.Imported().Name(), n.Sel.Name)
					case path == "time" && bannedTimeMembers[n.Sel.Name]:
						pass.Reportf(n.Pos(), "wall-clock time.%s in a runtime package: use the run's virtual clock (or carry //fedtripvet:allow <reason>)", n.Sel.Name)
					}
				}
				return true
			})
		}
		return nil, nil
	}
	return a
}
