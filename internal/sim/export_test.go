package sim

// Hooks for oracle_test.go, an external test package because it also
// runs the programs of packages that import sim.
var BuildRandomProgram = buildRandomProgram

// GoldenPrograms returns the sources of this package's golden tests by
// name.
func GoldenPrograms() map[string]string {
	m := map[string]string{"schedule": goldenScheduleSrc}
	for name, src := range opMixPrograms {
		m["opmix-"+name] = src
	}
	return m
}
