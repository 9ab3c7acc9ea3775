package obs_test

// Metrics-hygiene audit: every metric the engine registers must carry a
// non-empty help string, counters must end in _total, names must be
// legal Prometheus identifiers, and duplicate registration must panic.
// The test lives in an external package so it can instantiate the real
// engine metric set (internal/atpg imports internal/obs, so the reverse
// import is only legal from a _test package).

import (
	"regexp"
	"strings"
	"testing"

	"atpgeasy/internal/atpg"
	"atpgeasy/internal/obs"
)

var promName = regexp.MustCompile(`^[a-z_][a-z0-9_]*$`)

func TestEngineMetricsHygiene(t *testing.T) {
	reg := obs.NewRegistry()
	atpg.NewMetrics(reg)
	ms := reg.Metrics()
	if len(ms) == 0 {
		t.Fatal("NewMetrics registered nothing")
	}
	seen := make(map[string]bool)
	for _, m := range ms {
		if m.Help == "" {
			t.Errorf("metric %s has an empty help string", m.Name)
		}
		if !promName.MatchString(m.Name) {
			t.Errorf("metric %s is not a legal Prometheus name", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %s registered twice", m.Name)
		}
		seen[m.Name] = true
		switch m.Type {
		case "counter":
			if !strings.HasSuffix(m.Name, "_total") {
				t.Errorf("counter %s does not end in _total", m.Name)
			}
		case "gauge", "histogram":
			if strings.HasSuffix(m.Name, "_total") {
				t.Errorf("%s %s must not end in _total", m.Type, m.Name)
			}
		default:
			t.Errorf("metric %s has unknown type %q", m.Name, m.Type)
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("dup_total", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	reg.Counter("dup_total", "second")
}
