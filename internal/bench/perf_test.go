package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// writeReport marshals a PerfReport to a temp file and returns its path.
func writeReport(t *testing.T, name string, rep PerfReport) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func baseReport() PerfReport {
	return PerfReport{
		GOMAXPROCS: 4, NumCPU: 4,
		Experiments: []PerfExperiment{
			{
				Name: "fig11a-hashjoin-p16", Rows: 1 << 15,
				Serial: PerfRun{CyclesPerSec: 30000, WallSeconds: 1.0},
			},
		},
	}
}

// TestCompareGates: serial regression beyond tolerance fails; matching
// reports pass.
func TestCompareGates(t *testing.T) {
	base := writeReport(t, "base.json", baseReport())

	same := writeReport(t, "same.json", baseReport())
	if err := Compare(same, base, 0.10); err != nil {
		t.Fatalf("identical report failed compare: %v", err)
	}

	slow := baseReport()
	slow.Experiments[0].Serial.CyclesPerSec = 20000
	if err := Compare(writeReport(t, "slow.json", slow), base, 0.10); err == nil {
		t.Fatal("33% serial regression passed compare")
	}
}

// TestCompareReadsCommittedBaselines: the real committed reports parse
// under the current schema and gate cleanly against themselves — renamed
// fields must never strand an old baseline.
func TestCompareReadsCommittedBaselines(t *testing.T) {
	for _, p := range []string{"../../BENCH_3.json", "../../BENCH_4.json", "../../BENCH_7.json"} {
		if _, err := os.Stat(p); err != nil {
			t.Skipf("%s not present", p)
		}
		if err := Compare(p, p, 0.10); err != nil {
			t.Errorf("%s vs itself: %v", p, err)
		}
	}
}
