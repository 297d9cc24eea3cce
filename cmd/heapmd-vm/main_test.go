package main

import (
	"bytes"
	"testing"
)

// TestRunOutputIsDeterministic runs the pipeline twice on the same
// program and seeds and requires byte-identical output: the stable
// ranges print in suite order, not map order.
func TestRunOutputIsDeterministic(t *testing.T) {
	args := []string{"-src", "../../examples/binarydemo/testdata/chains.asm", "-flag", "1"}
	var first, second bytes.Buffer
	for _, out := range []*bytes.Buffer{&first, &second} {
		code, err := run(args, out)
		if err != nil {
			t.Fatal(err)
		}
		if code != 1 {
			t.Fatalf("exit status %d, want 1: the buggy path must raise findings", code)
		}
	}
	if first.String() != second.String() {
		t.Fatalf("two runs differ:\n%s\n---\n%s", first.String(), second.String())
	}
	if !bytes.Contains(first.Bytes(), []byte("globally stable metrics")) {
		t.Fatalf("no training summary in output:\n%s", first.String())
	}
}
