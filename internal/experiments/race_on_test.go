//go:build race

package experiments

// raceEnabled reports whether the test binary was built with -race; see
// race_off_test.go.
const raceEnabled = true
