package topocon_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"topocon"
)

// fingerprintDepth is the exploration depth under which the corpus
// fingerprints are compared; deep enough to separate every entry's
// behaviour.
const fingerprintDepth = 6

// corpusFiles returns every file in scenarios/, partitioned into concrete
// scenario documents and parameterized templates. It fails the test on
// anything it cannot classify — a stray file in the corpus directory must
// never be skipped silently, or a typo'd spec would drop out of coverage
// without anybody noticing.
func corpusFiles(t *testing.T) (scenarios, templates []string) {
	t.Helper()
	entries, err := os.ReadDir("scenarios")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("scenarios/ is empty")
	}
	for _, e := range entries {
		path := filepath.Join("scenarios", e.Name())
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			t.Fatalf("%s: corpus entries must be .json documents; this file would not be loaded", path)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if topocon.IsTemplateDoc(data) {
			templates = append(templates, path)
		} else {
			scenarios = append(scenarios, path)
		}
	}
	return scenarios, templates
}

// TestScenarioCorpus walks every spec in scenarios/ through a full
// Analyzer session: the adversary must satisfy the automaton contract, the
// verdict must match the spec's pinned expectation, and the behavioural
// fingerprint must be stable across independent loads and distinct across
// the corpus. Every directory entry must load as a scenario or template —
// an unloadable file fails the test rather than passing vacuously.
func TestScenarioCorpus(t *testing.T) {
	files, templates := corpusFiles(t)
	if len(files) < 8 {
		t.Fatalf("scenario corpus has %d concrete specs, want >= 8", len(files))
	}
	if len(templates) < 2 {
		t.Fatalf("scenario corpus has %d sweep templates, want >= 2", len(templates))
	}
	type entry struct {
		file        string
		fingerprint string
	}
	var entries []entry
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			s, err := topocon.LoadScenario(file)
			if err != nil {
				t.Fatal(err)
			}
			if s.Expect == 0 {
				t.Fatalf("%s: corpus specs must pin an expected verdict", file)
			}
			if err := topocon.ValidateAdversary(s.Adversary, 5); err != nil {
				t.Fatalf("contract violation: %v", err)
			}
			// Fingerprints are stable across independent constructions of
			// the same spec.
			again, err := topocon.LoadScenario(file)
			if err != nil {
				t.Fatal(err)
			}
			fp := s.Fingerprint(fingerprintDepth)
			if fp2 := again.Fingerprint(fingerprintDepth); fp2 != fp {
				t.Errorf("fingerprint not stable across loads: %s vs %s", fp, fp2)
			}
			entries = append(entries, entry{file: file, fingerprint: fp})

			an, err := topocon.NewAnalyzer(s.Adversary, topocon.WithCheckOptions(s.Options))
			if err != nil {
				t.Fatal(err)
			}
			res, err := an.Check(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != s.Expect {
				t.Errorf("verdict = %v, want %v", res.Verdict, s.Expect)
			}
		})
	}
	// Every concrete corpus entry denotes a behaviourally distinct
	// adversary. (Template grids are exempt: saturating parameter families
	// produce intentionally isomorphic cells — that is what the sweep
	// engine's verdict cache exists for.)
	seen := map[string]string{}
	for _, e := range entries {
		if prev, clash := seen[e.fingerprint]; clash {
			t.Errorf("fingerprint collision between %s and %s", prev, e.file)
		}
		seen[e.fingerprint] = e.file
	}
}

// TestScenarioCorpusTemplates walks every sweep template in scenarios/
// through expansion and a full sweep run: templates must expand to at
// least two cells (a one-cell template is a concrete scenario in
// disguise), every cell's adversary must satisfy the automaton contract,
// and a pinned template verdict must hold across the whole grid.
func TestScenarioCorpusTemplates(t *testing.T) {
	_, templates := corpusFiles(t)
	for _, file := range templates {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			tpl, err := topocon.LoadTemplate(file)
			if err != nil {
				t.Fatal(err)
			}
			cells, err := tpl.Expand()
			if err != nil {
				t.Fatal(err)
			}
			if len(cells) < 2 {
				t.Fatalf("template expands to %d cells, want >= 2 (inline a concrete scenario instead)", len(cells))
			}
			cellNames := map[string]bool{}
			for _, cell := range cells {
				if cellNames[cell.Scenario.Name] {
					t.Fatalf("duplicate cell name %q", cell.Scenario.Name)
				}
				cellNames[cell.Scenario.Name] = true
				if err := topocon.ValidateAdversary(cell.Scenario.Adversary, 4); err != nil {
					t.Fatalf("cell %s: contract violation: %v", cell.Scenario.Name, err)
				}
			}
			report, err := topocon.Sweep(context.Background(), tpl, topocon.SweepConfig{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range report.Cells {
				if c.Status != topocon.SweepStatusDone {
					t.Errorf("cell %s: status %s (%s)", c.Name, c.Status, c.Err)
				}
				if c.Match != nil && !*c.Match {
					t.Errorf("cell %s: verdict %s contradicts pinned %s", c.Name, c.Verdict, c.Expect)
				}
			}
			if report.Summary.Done != len(cells) {
				t.Errorf("sweep finished %d of %d cells", report.Summary.Done, len(cells))
			}
		})
	}
}

// TestScenarioFingerprintsPinned pins the behavioural fingerprint of every
// scenario and every template cell in scenarios/ to the values recorded in
// testdata/scenario-fingerprints.golden. Verdict-store keys hash these
// fingerprints, so any change to them — including a change to the byte
// layout of graph.Graph.Key, which Fingerprint sorts transitions by —
// would orphan every stored verdict.
func TestScenarioFingerprintsPinned(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "scenario-fingerprints.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	files, templates := corpusFiles(t)
	for _, file := range files {
		s, err := topocon.LoadScenario(file)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s %s\n", filepath.Base(file), s.Fingerprint(fingerprintDepth))
	}
	for _, file := range templates {
		tpl, err := topocon.LoadTemplate(file)
		if err != nil {
			t.Fatal(err)
		}
		cells, err := tpl.Expand()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			fmt.Fprintf(&got, "%s %s %s\n", filepath.Base(file), c.Scenario.Name, c.Scenario.Fingerprint(fingerprintDepth))
		}
	}
	want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	have := strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n")
	if len(want) != len(have) {
		t.Fatalf("corpus has %d fingerprinted entries, golden file %d:\n%s", len(have), len(want), got.String())
	}
	for i := range want {
		if want[i] != have[i] {
			t.Errorf("fingerprint changed:\n got  %s\n want %s", have[i], want[i])
		}
	}
}
