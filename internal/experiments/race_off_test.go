//go:build !race

package experiments

// raceEnabled reports whether the test binary was built with -race;
// wall-clock assertions are skipped there because the race runtime's
// instrumentation slows every solve.
const raceEnabled = false
