package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the CLI goldens under testdata/golden")

// cliGolden is one pinned command: what it prints to stdout and to
// stderr must equal the named golden files byte for byte. An empty
// file name means the stream must stay empty.
type cliGolden struct {
	name           string
	args           []string
	stdout, stderr string
}

// TestCLIGolden runs train and check on one SPEC-like program (mcf)
// and one commercial program (webapp) and diffs their output, model
// file included, against goldens. Each command runs at -parallel 1 and
// -parallel 0, which the flag's help promises print the same bytes.
// The check commands read the golden model that the train command
// before them pins, so a change to a model shows in both. Run with
// -update to rewrite the goldens deliberately.
func TestCLIGolden(t *testing.T) {
	var cases []cliGolden
	for _, w := range []string{"mcf", "webapp"} {
		mdl := filepath.Join("testdata", "golden", w+".model")
		check := []string{"check", "-workload", w, "-model", mdl, "-skip", "8", "-inputs", "4"}
		cases = append(cases,
			cliGolden{"train-" + w, []string{"train", "-workload", w, "-inputs", "8"}, w + ".model", "train-" + w + ".txt"},
			cliGolden{"check-" + w, check, "check-" + w + ".txt", ""},
			cliGolden{"check-" + w + "-dlist-missing-prev", append(check[:len(check):len(check)], "-fault", "dlist-missing-prev"),
				"check-" + w + "-dlist-missing-prev.txt", ""},
		)
	}
	for _, c := range cases {
		for _, par := range []string{"1", "0"} {
			args := append(c.args[:len(c.args):len(c.args)], "-parallel", par)
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s -parallel %s: exit status %d\n%s", c.name, par, code, stderr.String())
			}
			compareGolden(t, c.name+" -parallel "+par, "stdout", c.stdout, stdout.Bytes())
			compareGolden(t, c.name+" -parallel "+par, "stderr", c.stderr, stderr.Bytes())
		}
	}
}

// compareGolden diffs one output stream of a command against its
// golden file, or, with -update, writes the file.
func compareGolden(t *testing.T, cmd, stream, file string, got []byte) {
	t.Helper()
	if file == "" {
		if len(got) > 0 {
			t.Errorf("%s: unexpected %s:\n%s", cmd, stream, got)
		}
		return
	}
	path := filepath.Join("testdata", "golden", file)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: %s differs from %s:\n--- got\n%s\n--- want\n%s", cmd, stream, path, got, want)
	}
}
