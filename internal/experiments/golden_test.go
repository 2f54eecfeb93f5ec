package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the extension-study golden CSVs")

// extensionStudies lists the schedulability extensions by CLI name.
var extensionStudies = []struct {
	name string
	run  func(Options) (*Study, error)
}{
	{"extcrpd", ExtCRPD},
	{"extpartition", ExtPartition},
	{"extopa", ExtOPA},
	{"extgen", ExtGen},
}

// TestExtensionGolden pins every extension study's CSV at the small
// test settings under two base seeds, so a rebuild of the study
// runtime must reproduce them byte for byte. Regenerate with
// `go test ./internal/experiments -run ExtensionGolden -update`.
func TestExtensionGolden(t *testing.T) {
	for _, s := range extensionStudies {
		for _, seed := range []int64{1, 2} {
			opts := smallOpts()
			opts.Seed = seed
			st, err := s.run(opts)
			if err != nil {
				t.Fatalf("%s seed %d: %v", s.name, seed, err)
			}
			got := studyCSV(t, st)
			path := filepath.Join("testdata", fmt.Sprintf("%s_seed%d.csv", s.name, seed))
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s differs from the golden file:\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		}
	}
}
