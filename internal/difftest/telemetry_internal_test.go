package difftest

import (
	"strings"
	"testing"
)

// TestPipelineCacheLineMarksUnused checks that a pipeline cache nobody
// looked up is reported as unused, and a used one is not.
func TestPipelineCacheLineMarksUnused(t *testing.T) {
	if got := pipelineCacheLine(0, 0, 0); got != "  pipeline cache: 0 hits, 0 misses, 0 pipelines (unused by campaigns)\n" {
		t.Errorf("unused cache line = %q", got)
	}
	if got := pipelineCacheLine(3, 1, 1); strings.Contains(got, "unused") {
		t.Errorf("used cache line = %q", got)
	}
}
