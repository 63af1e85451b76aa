package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunReproducesCommittedBlocks runs the README's casvm-bench command
// lines that finish in well under a second, and each experiment's output
// must be its block of the committed experiments_raw.txt byte for byte
// (`make paper-golden` holds the whole file to `-exp all`).
func TestRunReproducesCommittedBlocks(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "experiments_raw.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 24 || lines[1] != "table4   Iso-efficiency functions" ||
		lines[23] != "fig9     Computation/communication ratio (toy)" {
		t.Errorf("-list printed:\n%s", out.String())
	}

	// table4 is the block between its header and table5's.
	out.Reset()
	if err := run([]string{"-exp", "table4"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "\n=== table4 ") || !strings.Contains(string(raw), out.String()+"\n=== table5 ") {
		t.Errorf("-exp table4 printed a block experiments_raw.txt does not hold:\n%s", out.String())
	}

	// fig9 is the file's last block.
	reports := filepath.Join(t.TempDir(), "fig9.reports.json")
	out.Reset()
	if err := run([]string{"-exp", "fig9", "-report", reports}, &out); err != nil {
		t.Fatal(err)
	}
	block, trailer, _ := strings.Cut(out.String(), "\n7 run reports written to ")
	if !strings.HasPrefix(block, "\n=== fig9 ") || !strings.HasSuffix(string(raw), block+"\n") ||
		trailer != reports+"\n" {
		t.Errorf("-exp fig9 -report printed:\n%s", out.String())
	}
	f, err := os.ReadFile(reports)
	if err != nil {
		t.Fatal(err)
	}
	var runs []json.RawMessage
	if err := json.Unmarshal(f, &runs); err != nil || len(runs) != 7 {
		t.Errorf("%s: %d reports, %v; want 7", reports, len(runs), err)
	}

	for _, args := range [][]string{{}, {"-exp", "table99"}, {"-nosuch"}} {
		if err := run(args, &out); err == nil {
			t.Errorf("run %q: no error", args)
		}
	}
}
